//! A deliberately tiny JSON reader/writer shared by every
//! machine-readable artifact in the repository.
//!
//! `BENCH_results.json` / `BENCH_baseline.json` and the experiment
//! ledger (`ledger/runs.jsonl`) are flat and produced by this repository
//! itself, so a dependency-free parser covering the full JSON grammar
//! (objects, arrays, strings with escapes, numbers, bools, null) is all
//! that is needed. Writing goes through helper functions that keep the
//! output deterministic (fixed key order, shortest-round-trip floats),
//! which makes the emitted files diffable.
//!
//! This module is the single JSON implementation in the workspace: the
//! bench gate (`tsqr-bench`) and [`crate::ledger`] both serialize
//! through it, so escaping and number formatting cannot drift between
//! them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; the bench files stay well
    /// within exact-integer range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` so iteration is deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// anything else is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let b = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Renders the value as compact single-line JSON (deterministic:
    /// object keys come out in `BTreeMap` order).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => out.push_str(&num(*v)),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(v) => {
                out.push('[');
                for (i, item) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut m = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(m));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                m.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(m));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut v = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(v));
            }
            loop {
                v.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(v));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).expect("ascii number");
            s.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number {s:?} at byte {start}"))
        }
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                out.push(match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    b'b' => '\u{8}',
                    b'f' => '\u{c}',
                    b'u' => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        char::from_u32(code).ok_or("bad \\u code point")?
                    }
                    other => return Err(format!("unknown escape \\{}", other as char)),
                });
                *pos += 1;
            }
            _ => {
                // Consume one UTF-8 scalar.
                let s = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = s.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
    Err("unterminated string".into())
}

/// Escapes a string for embedding in JSON output.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Formats an `f64` as a JSON number: shortest round-trip decimal,
/// always finite input expected.
pub fn num(v: f64) -> String {
    assert!(v.is_finite(), "JSON cannot carry non-finite numbers ({v})");
    let mut s = format!("{v}");
    if !s.contains('.') && !s.contains('e') && !s.contains("inf") {
        s.push_str(".0");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_bench_shape() {
        let text = r#"
        {
          "schema": "grid-tsqr-bench/v1",
          "records": [
            {"id": "fig5/tsqr", "m": 1048576, "gflops": 64.25, "ok": true, "x": null},
            {"id": "fig4/scalapack", "makespan_s": 1.184304e0, "neg": -3.5}
          ]
        }"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("grid-tsqr-bench/v1"));
        let recs = v.get("records").unwrap().as_arr().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].get("m").unwrap().as_num(), Some(1048576.0));
        assert_eq!(recs[1].get("neg").unwrap().as_num(), Some(-3.5));
        assert_eq!(recs[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(recs[0].get("x"), Some(&Json::Null));
    }

    #[test]
    fn parses_escapes_and_rejects_garbage() {
        let v = Json::parse(r#""a\"b\nA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\nA"));
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn number_formatting_round_trips() {
        for v in [0.0, 1.5, -2.25, 1048576.0, 1e-9, 0.1343210987, 64.0] {
            let s = num(v);
            let back = Json::parse(&s).unwrap().as_num().unwrap();
            assert_eq!(back, v, "{s}");
        }
        assert_eq!(num(64.0), "64.0");
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn render_parse_round_trips_edge_cases() {
        // Control characters, empty arrays/objects, deep floats — the
        // shapes the ledger and the bench files can actually contain.
        let mut obj = BTreeMap::new();
        obj.insert("ctrl".into(), Json::Str("a\u{1}b\u{1f}\u{8}\u{c}c".into()));
        obj.insert("quote".into(), Json::Str("say \"hi\"\\done\r\n\tok".into()));
        obj.insert("empty_arr".into(), Json::Arr(vec![]));
        obj.insert("empty_obj".into(), Json::Obj(BTreeMap::new()));
        obj.insert("unicode".into(), Json::Str("Grid'5000 → α β γ".into()));
        obj.insert(
            "nums".into(),
            Json::Arr(
                [0.0, -0.0, 1e-300, 2.2250738585072014e-308, 1.7e308, -9.75, 1048576.0]
                    .iter()
                    .map(|&v| Json::Num(v))
                    .collect(),
            ),
        );
        obj.insert("null".into(), Json::Null);
        obj.insert("flags".into(), Json::Arr(vec![Json::Bool(true), Json::Bool(false)]));
        let v = Json::Obj(obj);
        let text = v.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v, "render→parse must be the identity: {text}");
        // And rendering the parsed value is byte-stable (canonical form).
        assert_eq!(back.render(), text);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn num_rejects_nan() {
        let _ = num(f64::NAN);
    }
}
