//! The workspace's one JSON model: a [`Json`] value that every artifact
//! is built as, one writer for the three layouts the checked-in
//! artifacts use ([`Layout`]), and one reader ([`parse`] plus [`Node`])
//! whose errors name the JSON path they happened at. The workspace is
//! offline-vendored and has no serde_json.
//!
//! Integers are a variant of their own ([`Json::Int`]) and are written
//! and read exactly over the whole `u64`/`i64` range; fractional
//! numbers carry the fixed number of decimals they are written with.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// An integer, exact over the whole `u64` and `i64` ranges.
    Int(i128),
    /// A fractional number and the decimal places it is written with.
    Num(f64, usize),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// How [`Json::render`] lays a document out. None of the layouts ends
/// with a newline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// No whitespace at all: `{"a":1,"b":[2,3]}`.
    Compact,
    /// One top-level member per line, written on one line with `": "`
    /// and `", "` separators; a non-empty top-level array puts one
    /// element (row) per line. `compact_rows` writes those rows in the
    /// [`Layout::Compact`] style instead.
    Framed { compact_rows: bool },
    /// Two-space indentation at every level. Non-empty objects open a
    /// block; an array stays on one line unless an element holds a
    /// nested container inside an object or array of its own.
    Indented,
}

/// Separators of the one-line styles: `(between items, after a key)`.
const COMPACT: (&str, &str) = (",", ":");
const SPACED: (&str, &str) = (", ", ": ");

impl Json {
    /// An empty object, to be filled with [`Json::with`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a member to an object (builder style).
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.push(key, value);
        self
    }

    /// Append a member to an object. Panics on a non-object: that is a
    /// bug in the emitter, not bad input.
    pub fn push(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value.into())),
            other => panic!("Json::push on a non-object: {other:?}"),
        }
    }

    /// Member lookup on an object; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array elements; `None` for non-arrays.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// String contents; `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value; `None` for non-booleans.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric value as `f64`; `None` for non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n, _) => Some(*n),
            _ => None,
        }
    }

    /// Non-negative integer value; `None` for non-numbers, negatives,
    /// fractions, and values above `u64::MAX`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            Json::Num(n, _) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The path-carrying reader over this value; `root` names it in
    /// error messages.
    pub fn node(&self, root: &str) -> Node<'_> {
        Node {
            value: self,
            path: root.to_string(),
        }
    }

    /// Write the document in `layout` (no trailing newline).
    pub fn render(&self, layout: Layout) -> String {
        let mut out = String::new();
        self.write(&mut out, layout, 0);
        out
    }

    /// Write at nesting `depth`: a container the layout breaks opens a
    /// block with one entry per line; anything else goes on one line.
    fn write(&self, out: &mut String, layout: Layout, depth: usize) {
        let breaks = match (layout, self) {
            (Layout::Framed { .. }, Json::Obj(_)) => depth == 0,
            (Layout::Framed { .. }, Json::Arr(items)) => depth == 1 && !items.is_empty(),
            (Layout::Indented, Json::Obj(pairs)) => !pairs.is_empty(),
            (Layout::Indented, Json::Arr(items)) => !items.iter().all(Json::is_flat),
            _ => false,
        };
        if !breaks {
            let compact = layout == Layout::Compact
                || (layout == Layout::Framed { compact_rows: true } && depth == 2);
            return self.write_line(out, if compact { COMPACT } else { SPACED });
        }
        let indent = "  ".repeat(depth);
        let (open, close, entries) = self.entries();
        out.push(open);
        for (i, (key, value)) in entries.into_iter().enumerate() {
            out.push_str(if i == 0 { "\n  " } else { ",\n  " });
            out.push_str(&indent);
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, layout, depth + 1);
        }
        out.push('\n');
        out.push_str(&indent);
        out.push(close);
    }

    fn write_line(&self, out: &mut String, seps: (&str, &str)) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(n, places) if n.is_finite() => {
                let _ = write!(out, "{n:.places$}");
            }
            Json::Num(..) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(_) | Json::Obj(_) => {
                let (open, close, entries) = self.entries();
                out.push(open);
                for (i, (key, value)) in entries.into_iter().enumerate() {
                    if i > 0 {
                        out.push_str(seps.0);
                    }
                    if let Some(key) = key {
                        write_str(out, key);
                        out.push_str(seps.1);
                    }
                    value.write_line(out, seps);
                }
                out.push(close);
            }
        }
    }

    /// A container's brackets and entries (object entries keyed).
    fn entries(&self) -> (char, char, Vec<(Option<&str>, &Json)>) {
        match self {
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(pairs) => {
                let entries = pairs.iter().map(|(k, v)| (Some(k.as_str()), v));
                ('{', '}', entries.collect())
            }
            _ => unreachable!("scalars have no entries"),
        }
    }

    /// A scalar, or a container holding only scalars.
    fn is_flat(&self) -> bool {
        let scalar = |v: &Json| !matches!(v, Json::Arr(_) | Json::Obj(_));
        match self {
            Json::Arr(items) => items.iter().all(scalar),
            Json::Obj(pairs) => pairs.iter().all(|(_, v)| scalar(v)),
            _ => true,
        }
    }
}

/// Write `s` as a quoted JSON string literal.
fn write_str(out: &mut String, s: &str) {
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
}

macro_rules! int_into_json {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Int(v as i128)
            }
        }
    )*};
}
int_into_json!(u8, u32, u64, usize, i64);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

macro_rules! str_into_json {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(s: $t) -> Json {
                Json::Str(s.to_string())
            }
        }
    )*};
}
str_into_json!(&str, String, &String);

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        items.into_iter().collect()
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

/// A value inside a parsed document plus the JSON path that reached it
/// (`load.grid[3].p99_ns`): every accessor's error names that path.
#[derive(Debug, Clone)]
pub struct Node<'j> {
    value: &'j Json,
    path: String,
}

impl<'j> Node<'j> {
    /// The underlying value.
    pub fn value(&self) -> &'j Json {
        self.value
    }

    /// `"{path}: {msg}"` — an error located at this node.
    pub fn error(&self, msg: impl std::fmt::Display) -> String {
        format!("{}: {msg}", self.path)
    }

    /// The node for `value`, one path `step` below this one.
    fn child(&self, value: &'j Json, step: std::fmt::Arguments) -> Node<'j> {
        Node {
            value,
            path: format!("{}{step}", self.path),
        }
    }

    /// A required member.
    pub fn get(&self, key: &str) -> Result<Node<'j>, String> {
        self.value
            .get(key)
            .map(|value| self.child(value, format_args!(".{key}")))
            .ok_or_else(|| self.error(format_args!("missing key '{key}'")))
    }

    /// An optional member: `None` when it is absent or `null`.
    pub fn opt(&self, key: &str) -> Option<Node<'j>> {
        self.get(key).ok().filter(|n| !n.is_null())
    }

    /// Whether this value is `null`.
    pub fn is_null(&self) -> bool {
        *self.value == Json::Null
    }

    /// A non-negative integer.
    pub fn u64(&self) -> Result<u64, String> {
        self.value
            .as_u64()
            .ok_or_else(|| self.error("not a non-negative integer"))
    }

    /// Any number.
    pub fn f64(&self) -> Result<f64, String> {
        self.value
            .as_f64()
            .ok_or_else(|| self.error("not a number"))
    }

    /// A boolean.
    pub fn bool(&self) -> Result<bool, String> {
        self.value
            .as_bool()
            .ok_or_else(|| self.error("not a boolean"))
    }

    /// A string.
    pub fn str(&self) -> Result<&'j str, String> {
        self.value
            .as_str()
            .ok_or_else(|| self.error("not a string"))
    }

    /// The elements of an array.
    pub fn items(&self) -> Result<Vec<Node<'j>>, String> {
        let items = self
            .value
            .as_arr()
            .ok_or_else(|| self.error("not an array"))?;
        let step = |(i, value)| self.child(value, format_args!("[{i}]"));
        Ok(items.iter().enumerate().map(step).collect())
    }

    /// The members of an object, in document order.
    pub fn members(&self) -> Result<Vec<(&'j str, Node<'j>)>, String> {
        let Json::Obj(pairs) = self.value else {
            return Err(self.error("not an object"));
        };
        let step = |(key, value): &'j (String, Json)| {
            (key.as_str(), self.child(value, format_args!(".{key}")))
        };
        Ok(pairs.iter().map(step).collect())
    }
}

/// Parse a complete JSON document. Trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == want {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", want as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

/// Integers parse exactly; anything else keeps the count of decimals
/// it was written with, so a parsed document re-renders byte for byte.
fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    let invalid = || format!("invalid number '{text}' at byte {start}");
    if let Ok(i) = text.parse::<i128>() {
        return Ok(Json::Int(i));
    }
    let value = text.parse::<f64>().map_err(|_| invalid())?;
    let mantissa = text.split(['e', 'E']).next().unwrap_or(text);
    let places = mantissa.split_once('.').map_or(0, |(_, frac)| frac.len());
    Ok(Json::Num(value, places))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x80 => {
                out.push(b as char);
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8: copy the whole code point.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny", "d": true, "e": null}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("e"), Some(&Json::Null));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_u64(), None);
    }

    #[test]
    fn number_accessors_distinguish_sign_and_fraction() {
        let doc = r#"{"neg": -3, "pos": 7, "frac": 2.5, "s": "9", "b": true}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("neg").unwrap().as_u64(), None);
        assert_eq!(v.get("neg").unwrap().as_f64(), Some(-3.0));
        assert_eq!(v.get("pos").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("frac").unwrap().as_u64(), None);
        assert_eq!(v.get("frac").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("s").unwrap().as_u64(), None);
        assert_eq!(v.get("s").unwrap().as_f64(), None);
        assert_eq!(v.get("b").unwrap().as_f64(), None);
    }

    #[test]
    fn numbers_are_written_exactly() {
        for n in [0, (1u64 << 53) + 1, u64::MAX] {
            let text = Json::from(n).render(Layout::Compact);
            assert_eq!(text, n.to_string());
            assert_eq!(parse(&text).unwrap().as_u64(), Some(n));
        }
        let min = Json::from(i64::MIN).render(Layout::Compact);
        assert_eq!(parse(&min).unwrap(), Json::Int(i64::MIN.into()));
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        // fractions keep their decimal places; non-finite ones are null
        assert_eq!(Json::Num(f64::NAN, 1).render(Layout::Compact), "null");
        for text in ["0.95", "4000.0", "192327.750", "-0.5"] {
            assert_eq!(parse(text).unwrap().render(Layout::Compact), text);
        }
    }

    #[test]
    fn strings_escape_quotes_and_control_chars() {
        let s = |v: &str| Json::from(v).render(Layout::Compact);
        assert_eq!(s("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(s("\u{1}"), "\"\\u0001\"");
        let nasty = "quote \" backslash \\ newline \n tab \t ctrl \u{1} unicode é";
        let doc = Json::obj().with("k", nasty).render(Layout::Compact);
        assert_eq!(parse(&doc).unwrap().get("k").unwrap().as_str(), Some(nasty));
    }

    /// Every checked-in artifact with a regular layout re-renders byte
    /// for byte from its parse: the writer reproduces the layouts.
    #[test]
    fn checked_in_artifacts_roundtrip_byte_for_byte() {
        let framed = Layout::Framed {
            compact_rows: false,
        };
        for (text, layout) in [
            (
                include_str!("../../../results/BENCH_sdg.golden.json"),
                Layout::Compact,
            ),
            (
                include_str!("../../../results/BENCH_racer.golden.json"),
                Layout::Compact,
            ),
            (
                include_str!("../../../results/BENCH_plan.golden.json"),
                Layout::Framed { compact_rows: true },
            ),
            (include_str!("../../../results/BENCH_commit.json"), framed),
            (
                include_str!("../../../results/BENCH_table1.golden.json"),
                Layout::Indented,
            ),
        ] {
            let doc = parse(text).unwrap();
            assert_eq!(format!("{}\n", doc.render(layout)), text);
        }
    }

    #[test]
    fn node_errors_name_the_path() {
        let doc = parse(r#"{"grid": [{"w": 1}, {"w": "x"}], "n": null}"#).unwrap();
        let root = doc.node("load");
        let rows = root.get("grid").unwrap().items().unwrap();
        assert_eq!(rows[0].get("w").unwrap().u64(), Ok(1));
        assert_eq!(
            rows[1].get("w").unwrap().u64().unwrap_err(),
            "load.grid[1].w: not a non-negative integer"
        );
        assert_eq!(
            rows[0].get("p99").unwrap_err(),
            "load.grid[0]: missing key 'p99'"
        );
        assert!(root.opt("n").is_none());
        assert!(root.opt("absent").is_none());
        assert_eq!(
            root.get("n").unwrap().str().unwrap_err(),
            "load.n: not a string"
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("1.2.3").is_err());
    }
}
