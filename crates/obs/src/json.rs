//! The workspace's one JSON module: a strict reader and the writer
//! primitives.
//!
//! It lives in `obs` because `obs` is the leaf crate every other layer
//! already depends on (`core`, `conform`, `bench`), so one copy serves
//! the golden snapshots, the campaign journal, the trace and metrics
//! exporters, the BENCH files and `obsctl`. There is no external JSON
//! dependency (the build is offline).
//!
//! **Writing** is done by each output's own `format!` layout, so every
//! golden and journal byte stays under its writer's control; [`escape`]
//! and [`f64`] are the two shared primitives.
//!
//! **Reading** covers the subset the outputs use: objects with string
//! keys, arrays, strings, numbers, booleans and null. Object key order is
//! preserved so diffs stay reviewable. The parser is total: any input —
//! malformed, truncated mid-token, or binary garbage — yields a
//! descriptive [`ParseError`] with the byte offset of the first problem,
//! never a panic. [`parse_file`] adds the file path, so a corrupted
//! golden reports as `goldens/t3.json: byte 124: expected ',' or '}'`.

use std::fmt;
use std::path::Path;

/// Escape a string for embedding in a JSON string literal: quotes,
/// backslashes and control characters; everything else is copied as is.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Render an `f64` for JSON: Rust's shortest round-trip formatting, with
/// non-finite values (never produced by the simulator, but the writer must
/// still emit valid JSON) mapped to `null` and large sentinels.
pub fn f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "null".to_string()
    } else if v > 0.0 {
        "1e308".to_string()
    } else {
        "-1e308".to_string()
    }
}

/// A parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where the problem was detected.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(offset: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        offset,
        message: message.into(),
    })
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// An array of strings (e.g. headers, notes, a row of cells).
    pub fn as_str_vec(&self) -> Option<Vec<&str>> {
        self.as_arr()?.iter().map(Value::as_str).collect()
    }
}

/// Parse a JSON document.
///
/// # Errors
/// Returns a [`ParseError`] with the byte offset of the first syntax error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return err(pos, "trailing content after the document");
    }
    Ok(v)
}

/// Read and parse a JSON file, reporting the path in every failure.
///
/// # Errors
/// Returns `"<path>: <io error>"` for unreadable files and
/// `"<path>: byte <n>: <problem>"` for malformed or truncated content.
pub fn parse_file(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), ParseError> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        err(*pos, format!("expected '{}'", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => err(*pos, "unexpected end of input"),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key_at = *pos;
                let key = match parse_value(b, pos)? {
                    Value::Str(s) => s,
                    _ => return err(key_at, "object key must be a string"),
                };
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                pairs.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(pairs));
                    }
                    _ => return err(*pos, "expected ',' or '}'"),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return err(*pos, "expected ',' or ']'"),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b't') => parse_keyword(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_keyword(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_keyword(b: &[u8], pos: &mut usize, word: &str, v: Value) -> Result<Value, ParseError> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(v)
    } else {
        err(*pos, format!("invalid literal (expected '{word}')"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    let opened_at = *pos;
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return err(opened_at, "unterminated string"),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok());
                        let code = match hex.and_then(|h| u32::from_str_radix(h, 16).ok()) {
                            Some(c) => c,
                            None => return err(*pos, "bad \\u escape"),
                        };
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return err(*pos, "bad escape"),
                }
                *pos += 1;
            }
            Some(_) => {
                // Batch-consume the run of ordinary bytes up to the next
                // quote or escape. Both stoppers are ASCII, so the run
                // always ends on a UTF-8 boundary.
                let start = *pos;
                while *pos < b.len() && b[*pos] != b'"' && b[*pos] != b'\\' {
                    *pos += 1;
                }
                let s = match std::str::from_utf8(&b[start..*pos]) {
                    Ok(s) => s,
                    Err(_) => return err(start, "invalid UTF-8 in string"),
                };
                out.push_str(s);
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .map_or_else(|| err(start, "invalid number"), Ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn escaped_strings_parse_back() {
        let s = "tab\t quote \" ctrl \u{1f} é";
        assert_eq!(
            parse(&format!("\"{}\"", escape(s))).unwrap().as_str(),
            Some(s)
        );
    }

    #[test]
    fn f64_is_shortest_round_trip() {
        assert_eq!(f64(1.5), "1.5");
        assert_eq!(f64(0.0), "0");
        assert_eq!(f64(f64::NAN), "null");
        assert_eq!(f64(f64::INFINITY), "1e308");
        assert_eq!(f64(f64::NEG_INFINITY), "-1e308");
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(
            r#"{"id": "t3", "tol": 0.02, "rows": [["a", "1"], ["b", "-2.5"]],
                "flags": [true, false, null]}"#,
        )
        .unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("t3"));
        assert_eq!(v.get("tol").unwrap().as_f64(), Some(0.02));
        let rows = v.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows[1].as_str_vec().unwrap(), vec!["b", "-2.5"]);
        assert_eq!(v.get("flags").unwrap().as_arr().unwrap()[2], Value::Null);
    }

    #[test]
    fn parses_escapes() {
        let v = parse(r#""quote \" slash \\ newline \n unicode é""#).unwrap();
        assert_eq!(v.as_str(), Some("quote \" slash \\ newline \n unicode é"));
    }

    #[test]
    fn rejects_garbage_with_offsets() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nope").is_err());
        let e = parse("{\"a\": 1} extra").unwrap_err();
        assert_eq!(e.offset, 9);
        assert!(e.to_string().contains("byte 9"), "{e}");
        let e = parse("{\"a\": @}").unwrap_err();
        assert_eq!(e.offset, 6, "{e}");
    }

    #[test]
    fn malformed_inputs_error_cleanly_never_panic() {
        // The satellite's negative suite: truncations, bad keys, bad
        // escapes, binary-ish noise. Every case must be an Err with a
        // sensible offset, not a panic.
        let cases: &[&str] = &[
            "",
            "   ",
            "{",
            "}",
            "[",
            "]",
            "{]",
            "[}",
            r#"{"a""#,
            r#"{"a":"#,
            r#"{"a":1,"#,
            r#"{"a":1,}"#,
            r#"{1: 2}"#,
            r#"{"a": 1 "b": 2}"#,
            r#""unterminated"#,
            r#""bad escape \q""#,
            r#""bad unicode \u12"#,
            r#""bad unicode \uzzzz""#,
            "tru",
            "falsy",
            "nul",
            "+-+.",
            "1e",
            "--3",
            "\u{0}\u{1}\u{2}",
            "{\"a\": \u{7f}}",
        ];
        for case in cases {
            let r = parse(case);
            let e = r.expect_err(&format!("{case:?} must be rejected"));
            assert!(e.offset <= case.len(), "{case:?}: offset {}", e.offset);
            assert!(!e.message.is_empty());
        }
    }

    #[test]
    fn every_truncation_of_a_valid_golden_errors_cleanly() {
        // A representative golden document: every strict prefix must fail
        // with an Err (no prefix of an object document is valid JSON).
        let doc = r#"{"id": "T3", "rows": [["A64FX", "38.26 / 36.90 (0.96x)"]],
                     "tolerance": {"kind": "relative", "columns": [0, 0.02]},
                     "flags": [true, false, null], "n": -1.5e3}"#;
        assert!(parse(doc).is_ok());
        for cut in 0..doc.len() {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            let prefix = &doc[..cut];
            let e = parse(prefix).expect_err("every strict prefix is invalid");
            assert!(e.offset <= prefix.len());
        }
    }

    #[test]
    fn parse_file_reports_path_and_offset() {
        let dir = std::env::temp_dir();
        let path = dir.join("obs_json_negative_test.json");
        std::fs::write(&path, "{\"id\": \"T1\"").unwrap();
        let e = parse_file(&path).unwrap_err();
        assert!(
            e.contains("obs_json_negative_test.json") && e.contains("byte"),
            "{e}"
        );
        std::fs::remove_file(&path).ok();
        let missing = dir.join("obs_json_no_such_file.json");
        let e = parse_file(&missing).unwrap_err();
        assert!(e.contains("obs_json_no_such_file.json"), "{e}");
    }
}
