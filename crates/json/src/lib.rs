//! # em-json — the workspace's one JSON dialect
//!
//! Hand-rolled (no crates.io in this environment, consistent with the
//! vendored `proptest` shim) and shared: result artifacts and the
//! tune-regret table write it, the tuning cache and the job service
//! read it back, and the integration tests use the parser to check the
//! writers' schemas. One implementation keeps the two directions honest
//! against each other.
//!
//! The subset is full JSON minus exotic escapes: objects (insertion-
//! ordered, so output is deterministic and diffable), arrays, strings
//! with the common escapes plus `\uXXXX`, numbers, booleans and null.
//!
//! Numbers carry an [`Json::Int`] / [`Json::Num`] distinction on the
//! writing side (artifact counters render without a fraction part);
//! equality is numeric across the two, so `parse(render(v)) == v` holds
//! for both.

use std::fmt::Write as _;

pub mod hash;

/// A JSON value. Build with the constructors, render with
/// [`Json::pretty`] or [`Json::compact`], read back with [`parse`].
#[derive(Clone, Debug)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// `Int` and `Num` compare numerically (`Int(3) == Num(3.0)`): the
/// parser yields `Num` for every number literal, so structural equality
/// would otherwise break `parse(render(v)) == v` for written `Int`s.
impl PartialEq for Json {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            },
        }
    }
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(&str, value)` pairs, in order.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Set or replace an object field (no-op on non-objects).
    pub fn set(&mut self, key: &str, value: Json) {
        if let Json::Obj(pairs) = self {
            match pairs.iter_mut().find(|(k, _)| k == key) {
                Some(slot) => slot.1 = value,
                None => pairs.push((key.to_string(), value)),
            }
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Num(n) if *n == n.trunc() && n.abs() < 1e15 => Some(*n as i64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Render with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Render on one line.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None);
        out
    }

    fn render(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    if *n == n.trunc() && n.abs() < 1e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        // Shortest round-trip form; valid JSON for
                        // finite values.
                        let _ = write!(out, "{n:?}");
                    }
                } else {
                    // JSON has no Inf/NaN literal.
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(out, s),
            Json::Arr(items) => render_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                items[i].render(out, ind)
            }),
            Json::Obj(pairs) => render_seq(out, indent, '{', '}', pairs.len(), |out, i, ind| {
                escape_into(out, &pairs[i].0);
                out.push_str(": ");
                pairs[i].1.render(out, ind);
            }),
        }
    }
}

fn render_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    if len == 0 {
        out.push(open);
        out.push(close);
        return;
    }
    out.push(open);
    for i in 0..len {
        if let Some(level) = indent {
            out.push('\n');
            out.push_str(&"  ".repeat(level + 1));
            item(out, i, Some(level + 1));
        } else {
            item(out, i, None);
        }
        if i + 1 < len {
            out.push(',');
            if indent.is_none() {
                out.push(' ');
            }
        }
    }
    if let Some(level) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(close);
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
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

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        chars: text.char_indices().peekable(),
        text,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if let Some((i, c)) = p.chars.peek() {
        return Err(format!("trailing content at byte {i}: `{c}`"));
    }
    Ok(v)
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    text: &'a str,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            self.chars.next();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((i, c)) => Err(format!("expected `{want}` at byte {i}, found `{c}`")),
            None => Err(format!("expected `{want}`, found end of input")),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.chars.peek().copied() {
            None => Err("unexpected end of input".to_string()),
            Some((_, '{')) => self.object(),
            Some((_, '[')) => self.array(),
            Some((_, '"')) => Ok(Json::Str(self.string()?)),
            Some((_, 't')) => self.keyword("true", Json::Bool(true)),
            Some((_, 'f')) => self.keyword("false", Json::Bool(false)),
            Some((_, 'n')) => self.keyword("null", Json::Null),
            Some((i, c)) if c == '-' || c.is_ascii_digit() => self.number(i),
            Some((i, c)) => Err(format!("unexpected `{c}` at byte {i}")),
        }
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, String> {
        for want in word.chars() {
            self.expect(want)?;
        }
        Ok(v)
    }

    fn number(&mut self, start: usize) -> Result<Json, String> {
        let mut end = self.text.len();
        while let Some((i, c)) = self.chars.peek().copied() {
            if c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' || c.is_ascii_digit() {
                self.chars.next();
            } else {
                end = i;
                break;
            }
        }
        let lit = &self.text[start..end];
        lit.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number literal `{lit}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                None => return Err("unterminated string".to_string()),
                Some((_, '"')) => return Ok(out),
                Some((i, '\\')) => match self.chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 'b')) => out.push('\u{8}'),
                    Some((_, 'f')) => out.push('\u{c}'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (j, c) = self
                                .chars
                                .next()
                                .ok_or("unterminated \\u escape".to_string())?;
                            let d = c
                                .to_digit(16)
                                .ok_or_else(|| format!("bad hex digit `{c}` at byte {j}"))?;
                            code = code * 16 + d;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid \\u{code:04x} escape"))?,
                        );
                    }
                    Some((j, c)) => return Err(format!("bad escape `\\{c}` at byte {j}")),
                    None => return Err(format!("unterminated escape at byte {i}")),
                },
                Some((_, c)) => out.push(c),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if matches!(self.chars.peek(), Some((_, '}'))) {
            self.chars.next();
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.chars.next() {
                Some((_, ',')) => continue,
                Some((_, '}')) => return Ok(Json::Obj(pairs)),
                Some((i, c)) => return Err(format!("expected `,` or `}}` at byte {i}, got `{c}`")),
                None => return Err("unterminated object".to_string()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if matches!(self.chars.peek(), Some((_, ']'))) {
            self.chars.next();
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.chars.next() {
                Some((_, ',')) => continue,
                Some((_, ']')) => return Ok(Json::Arr(items)),
                Some((i, c)) => return Err(format!("expected `,` or `]` at byte {i}, got `{c}`")),
                None => return Err("unterminated array".to_string()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(parse(r#""a\nb\u0041""#).unwrap(), Json::str("a\nbA"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": "x"}], "c": null}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Null));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn pretty_roundtrips() {
        let v = Json::Obj(vec![
            ("name".to_string(), Json::str("tune \"cache\"")),
            ("hit".to_string(), Json::Bool(false)),
            ("score".to_string(), Json::Num(17.25)),
            ("count".to_string(), Json::Num(3.0)),
            ("periods".to_string(), Json::Int(12)),
            (
                "items".to_string(),
                Json::Arr(vec![Json::Num(1.0), Json::Null]),
            ),
            ("empty".to_string(), Json::Obj(vec![])),
        ]);
        assert_eq!(parse(&v.pretty()).unwrap(), v);
        assert_eq!(parse(&v.compact()).unwrap(), v);
    }

    #[test]
    fn ints_and_integral_floats_compare_and_render_alike() {
        assert_eq!(Json::Int(3), Json::Num(3.0));
        assert_ne!(Json::Int(3), Json::Num(3.5));
        assert_eq!(Json::Num(3.0).pretty(), "3\n");
        assert_eq!(Json::Int(3).pretty(), "3\n");
        assert_eq!(Json::Num(3.5).pretty(), "3.5\n");
        assert_eq!(Json::Num(2.0).as_i64(), Some(2));
        assert_eq!(Json::Int(2).as_f64(), Some(2.0));
    }

    #[test]
    fn compact_renders_nested_structures() {
        let j = Json::obj(vec![
            ("name", Json::str("solar-cell")),
            ("converged", Json::Bool(true)),
            ("periods", Json::Int(12)),
            ("rel", Json::Num(0.5)),
            ("tags", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("none", Json::Null),
        ]);
        assert_eq!(
            j.compact(),
            r#"{"name": "solar-cell", "converged": true, "periods": 12, "rel": 0.5, "tags": [1, 2], "none": null}"#
        );
    }

    #[test]
    fn pretty_indents_and_terminates_with_newline() {
        let j = Json::obj(vec![("a", Json::Arr(vec![Json::Int(1)]))]);
        assert_eq!(j.pretty(), "{\n  \"a\": [\n    1\n  ]\n}\n");
    }

    #[test]
    fn strings_are_escaped() {
        let j = Json::str("a\"b\\c\nd");
        assert_eq!(j.compact(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::INFINITY).compact(), "null");
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
        assert_eq!(Json::Num(2.5).compact(), "2.5");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::Arr(vec![]).pretty(), "[]\n");
        assert_eq!(Json::Obj(vec![]).compact(), "{}");
    }

    #[test]
    fn set_replaces_and_appends_fields() {
        let mut v = parse(r#"{"a": 1}"#).unwrap();
        v.set("a", Json::Int(2));
        v.set("b", Json::str("new"));
        assert_eq!(v.get("a").unwrap().as_i64(), Some(2));
        assert_eq!(v.get("b").unwrap().as_str(), Some("new"));
        // No-op on non-objects.
        let mut arr = Json::Arr(vec![]);
        arr.set("a", Json::Null);
        assert_eq!(arr, Json::Arr(vec![]));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"\\q\""] {
            assert!(parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn reads_the_artifact_writer_dialect() {
        // The shape `Json::pretty` emits for batch artifacts.
        let doc = "{\n  \"job\": 0,\n  \"energy\": 1.25e-3,\n  \"error\": null\n}\n";
        let v = parse(doc).unwrap();
        assert_eq!(v.get("job").unwrap().as_f64(), Some(0.0));
        assert_eq!(v.get("energy").unwrap().as_f64(), Some(0.00125));
        assert_eq!(v.get("error"), Some(&Json::Null));
    }
}
