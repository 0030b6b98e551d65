//! A hand-rolled parser and serializer for the TOML subset the scenario
//! files use.
//!
//! This build environment has no crates.io access, so — consistent with
//! the vendored-shim approach for `proptest` — the format
//! support is written here rather than pulled in. The subset covers
//! exactly what scenario specs need and nothing more:
//!
//! - `key = value` pairs with bare keys (`[A-Za-z0-9_-]+`);
//! - strings with `\"`, `\\`, `\n`, `\t`, `\r` escapes (single line);
//! - integers (`i64`), floats (`f64`, including exponent notation),
//!   booleans;
//! - single-line arrays of values `[1, 2.0, "three"]`;
//! - table headers `[a.b]` and arrays of tables `[[a.b]]` (dotted paths
//!   descend into the most recent element of an array of tables, as in
//!   real TOML);
//! - `#` comments and blank lines.
//!
//! Errors carry the 1-based line number and a description of what was
//! expected. Serialization emits documents this parser round-trips
//! losslessly (`parse(serialize(t)) == t`).

use std::fmt::Write as _;

/// A primitive TOML value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
    Array(Vec<Value>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
        }
    }
}

/// One entry of a table: a value, a sub-table, or an array of tables.
#[derive(Clone, Debug, PartialEq)]
pub enum Entry {
    Value(Value),
    Table(Table),
    Tables(Vec<Table>),
}

/// An ordered table (insertion order is preserved so serialization is
/// deterministic and round-trips).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Table {
    pairs: Vec<(String, Entry)>,
}

impl Table {
    pub fn new() -> Table {
        Table::default()
    }

    pub fn get(&self, key: &str) -> Option<&Entry> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, e)| e)
    }

    fn get_mut(&mut self, key: &str) -> Option<&mut Entry> {
        self.pairs
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, e)| e)
    }

    /// Insert, failing on duplicates (the parser's duplicate-key check).
    pub fn insert(&mut self, key: &str, entry: Entry) -> Result<(), String> {
        if self.get(key).is_some() {
            return Err(format!("duplicate key `{key}`"));
        }
        self.pairs.push((key.to_string(), entry));
        Ok(())
    }

    /// Insert or replace (serialization-side construction).
    pub fn set(&mut self, key: &str, entry: Entry) {
        if let Some(e) = self.get_mut(key) {
            *e = entry;
        } else {
            self.pairs.push((key.to_string(), entry));
        }
    }

    pub fn set_value(&mut self, key: &str, v: Value) {
        self.set(key, Entry::Value(v));
    }

    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.pairs.iter().map(|(k, _)| k.as_str())
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

// ------------------------------------------------------------- parsing

/// Parse a document into its root table.
pub fn parse(text: &str) -> Result<Table, String> {
    let mut root = Table::new();
    // Path of the table the following key/value lines belong to.
    let mut current: Vec<String> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("[[") {
            let inner = rest
                .strip_suffix("]]")
                .ok_or_else(|| format!("line {line_no}: `[[` without closing `]]`"))?;
            let path = parse_path(inner, line_no)?;
            let (parent, last) = path.split_at(path.len() - 1);
            let table = navigate(&mut root, parent, line_no)?;
            match table.get_mut(&last[0]) {
                None => {
                    table
                        .insert(&last[0], Entry::Tables(vec![Table::new()]))
                        .map_err(|e| format!("line {line_no}: {e}"))?;
                }
                Some(Entry::Tables(v)) => v.push(Table::new()),
                Some(other) => {
                    return Err(format!(
                        "line {line_no}: `{}` is already a {}, not an array of tables",
                        last[0],
                        entry_kind(other)
                    ))
                }
            }
            current = path;
        } else if let Some(rest) = line.strip_prefix('[') {
            let inner = rest
                .strip_suffix(']')
                .ok_or_else(|| format!("line {line_no}: `[` without closing `]`"))?;
            let path = parse_path(inner, line_no)?;
            navigate(&mut root, &path, line_no)?;
            current = path;
        } else {
            let (key, value) = parse_keyval(line, line_no)?;
            let table = navigate(&mut root, &current, line_no)?;
            table
                .insert(&key, Entry::Value(value))
                .map_err(|e| format!("line {line_no}: {e}"))?;
        }
    }
    Ok(root)
}

fn entry_kind(e: &Entry) -> &'static str {
    match e {
        Entry::Value(v) => v.type_name(),
        Entry::Table(_) => "table",
        Entry::Tables(_) => "array of tables",
    }
}

fn parse_path(inner: &str, line_no: usize) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for seg in inner.split('.') {
        let seg = seg.trim();
        if !is_bare_key(seg) {
            return Err(format!(
                "line {line_no}: invalid table name segment `{seg}` \
                 (bare keys use letters, digits, `-` and `_`)"
            ));
        }
        out.push(seg.to_string());
    }
    Ok(out)
}

fn is_bare_key(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

/// Walk `path` from `root`, creating intermediate tables; a path segment
/// that names an array of tables descends into its last element.
fn navigate<'a>(
    root: &'a mut Table,
    path: &[String],
    line_no: usize,
) -> Result<&'a mut Table, String> {
    let mut t = root;
    for seg in path {
        if t.get(seg).is_none() {
            t.insert(seg, Entry::Table(Table::new()))
                .map_err(|e| format!("line {line_no}: {e}"))?;
        }
        t = match t.get_mut(seg).expect("just ensured") {
            Entry::Table(sub) => sub,
            Entry::Tables(v) => v.last_mut().expect("array of tables is never empty"),
            Entry::Value(v) => {
                return Err(format!(
                    "line {line_no}: `{seg}` is a {}, not a table",
                    v.type_name()
                ))
            }
        };
    }
    Ok(t)
}

fn parse_keyval(line: &str, line_no: usize) -> Result<(String, Value), String> {
    let eq = line
        .find('=')
        .ok_or_else(|| format!("line {line_no}: expected `key = value`, got `{line}`"))?;
    let key = line[..eq].trim();
    if !is_bare_key(key) {
        return Err(format!(
            "line {line_no}: invalid key `{key}` \
             (bare keys use letters, digits, `-` and `_`)"
        ));
    }
    let mut cur = Cursor::new(&line[eq + 1..], line_no);
    cur.skip_ws();
    let value = cur.parse_value()?;
    cur.skip_ws();
    if !cur.at_end_or_comment() {
        return Err(format!(
            "line {line_no}: trailing characters after value: `{}`",
            cur.rest()
        ));
    }
    Ok((key.to_string(), value))
}

/// Character cursor over the value part of one line.
struct Cursor<'a> {
    chars: Vec<char>,
    pos: usize,
    line_no: usize,
    src: &'a str,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str, line_no: usize) -> Self {
        Cursor {
            chars: src.chars().collect(),
            pos: 0,
            line_no,
            src,
        }
    }

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
        while matches!(self.peek(), Some(' ') | Some('\t')) {
            self.pos += 1;
        }
    }

    fn at_end_or_comment(&self) -> bool {
        matches!(self.peek(), None | Some('#'))
    }

    fn rest(&self) -> String {
        self.chars[self.pos..].iter().collect()
    }

    fn err(&self, what: &str) -> String {
        format!("line {}: {what} in `{}`", self.line_no, self.src.trim())
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some('"') => self.parse_string().map(Value::Str),
            Some('[') => self.parse_array(),
            Some(_) => self.parse_scalar(),
            None => Err(self.err("expected a value")),
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    other => {
                        return Err(self.err(&format!(
                            "unsupported escape `\\{}`",
                            other.map(String::from).unwrap_or_default()
                        )))
                    }
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        self.bump(); // `[`
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                None => return Err(self.err("unterminated array")),
                Some(']') => {
                    self.bump();
                    return Ok(Value::Array(items));
                }
                _ => {}
            }
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                Some(']') => {}
                None => return Err(self.err("unterminated array")),
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_scalar(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == ',' || c == ']' || c == '#' || c == ' ' || c == '\t' {
                break;
            }
            self.pos += 1;
        }
        let token: String = self.chars[start..self.pos].iter().collect();
        match token.as_str() {
            "" => Err(self.err("expected a value")),
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            _ => {
                if let Ok(i) = token.parse::<i64>() {
                    return Ok(Value::Int(i));
                }
                if let Ok(f) = token.parse::<f64>() {
                    return Ok(Value::Float(f));
                }
                Err(self.err(&format!(
                    "`{token}` is not a number, boolean, string or array"
                )))
            }
        }
    }
}

// --------------------------------------------------------- serializing

/// Serialize a table into a document [`parse`] round-trips.
pub fn serialize(root: &Table) -> String {
    let mut out = String::new();
    emit_table(&mut out, root, &mut Vec::new());
    out
}

fn emit_table(out: &mut String, t: &Table, path: &mut Vec<String>) {
    for (k, e) in &t.pairs {
        if let Entry::Value(v) = e {
            let _ = writeln!(out, "{k} = {}", format_value(v));
        }
    }
    for (k, e) in &t.pairs {
        path.push(k.clone());
        match e {
            Entry::Value(_) => {}
            Entry::Table(sub) => {
                let _ = writeln!(out, "\n[{}]", path.join("."));
                emit_table(out, sub, path);
            }
            Entry::Tables(v) => {
                for el in v {
                    let _ = writeln!(out, "\n[[{}]]", path.join("."));
                    emit_table(out, el, path);
                }
            }
        }
        path.pop();
    }
}

fn format_value(v: &Value) -> String {
    match v {
        Value::Str(s) => format_string(s),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format_float(*f),
        Value::Bool(b) => b.to_string(),
        Value::Array(items) => {
            let body: Vec<String> = items.iter().map(format_value).collect();
            format!("[{}]", body.join(", "))
        }
    }
}

fn format_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn format_float(f: f64) -> String {
    // `{:?}` is Rust's shortest round-trip form; it always includes a
    // `.` or exponent for finite values, so floats re-parse as floats.
    format!("{f:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(t: &Table) {
        let text = serialize(t);
        let back = parse(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{text}"));
        assert_eq!(&back, t, "round trip changed the table:\n{text}");
    }

    #[test]
    fn parses_scalars_tables_and_arrays_of_tables() {
        let doc = r#"
# a scenario-ish document
name = "demo"        # trailing comment
count = 3
scale = 2.5
on = true
tags = ["a", "b"]

[grid]
nx = 8
ny = 8

[scene]
background = "vacuum"

[[scene.layer]]
z_lo = 0.0
z_hi = 4.0

[scene.layer.texture]
seed = 11

[[scene.layer]]
z_lo = 4.0
z_hi = 8.0
"#;
        let t = parse(doc).unwrap();
        assert_eq!(
            t.get("name"),
            Some(&Entry::Value(Value::Str("demo".into())))
        );
        assert_eq!(t.get("count"), Some(&Entry::Value(Value::Int(3))));
        assert_eq!(t.get("scale"), Some(&Entry::Value(Value::Float(2.5))));
        assert_eq!(t.get("on"), Some(&Entry::Value(Value::Bool(true))));
        let Some(Entry::Table(scene)) = t.get("scene") else {
            panic!("scene table");
        };
        let Some(Entry::Tables(layers)) = scene.get("layer") else {
            panic!("layer array");
        };
        assert_eq!(layers.len(), 2);
        // The nested texture table attached to the *first* [[scene.layer]].
        assert!(matches!(layers[0].get("texture"), Some(Entry::Table(_))));
        assert!(layers[1].get("texture").is_none());
        roundtrip(&t);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let mut t = Table::new();
        t.set_value("s", Value::Str("a \"quoted\" \\ back\nnewline\ttab".into()));
        roundtrip(&t);
    }

    #[test]
    fn floats_stay_floats_and_ints_stay_ints() {
        let mut t = Table::new();
        t.set_value("f", Value::Float(2.0));
        t.set_value("g", Value::Float(1e-7));
        t.set_value("h", Value::Float(-0.125));
        t.set_value("i", Value::Int(2));
        roundtrip(&t);
        let back = parse(&serialize(&t)).unwrap();
        assert!(matches!(back.get("f"), Some(Entry::Value(Value::Float(v))) if *v == 2.0));
        assert!(matches!(back.get("i"), Some(Entry::Value(Value::Int(2)))));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("a = 1\nb = ").unwrap_err();
        assert!(e.contains("line 2"), "{e}");
        let e = parse("a = 1\n\nc == 2").unwrap_err();
        assert!(e.contains("line 3"), "{e}");
        let e = parse("[grid\nnx = 1").unwrap_err();
        assert!(e.contains("line 1") && e.contains("closing"), "{e}");
        let e = parse("x = \"unterminated").unwrap_err();
        assert!(e.contains("unterminated string"), "{e}");
        let e = parse("x = [1, 2").unwrap_err();
        assert!(e.contains("unterminated array"), "{e}");
        let e = parse("x = what").unwrap_err();
        assert!(e.contains("`what`"), "{e}");
    }

    #[test]
    fn duplicate_keys_rejected() {
        let e = parse("a = 1\na = 2").unwrap_err();
        assert!(e.contains("duplicate key `a`"), "{e}");
        let e = parse("[t]\nx = 1\nx = 2").unwrap_err();
        assert!(e.contains("duplicate key `x`"), "{e}");
    }

    #[test]
    fn scalar_table_conflicts_rejected() {
        let e = parse("a = 1\n[a]\nb = 2").unwrap_err();
        assert!(e.contains("not a table"), "{e}");
        let e = parse("[a]\nx = 1\n[[a]]\ny = 2").unwrap_err();
        assert!(e.contains("array of tables"), "{e}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let t = parse("# header\n\n  # indented comment\nx = 1 # trailing\n").unwrap();
        assert_eq!(t.get("x"), Some(&Entry::Value(Value::Int(1))));
    }

    #[test]
    fn nested_arrays_parse() {
        let t = parse("m = [[1, 2], [3, 4]]").unwrap();
        let Some(Entry::Value(Value::Array(rows))) = t.get("m") else {
            panic!("array");
        };
        assert_eq!(rows.len(), 2);
        roundtrip(&t);
    }
}
