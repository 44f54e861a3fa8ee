//! Minimal JSON parser for the harness's own artifacts.
//!
//! The workspace deliberately has no serde; the only JSON the harness ever
//! needs to *read back* is JSON it wrote itself (ObsReports, Perfetto
//! traces) — flat numbers, strings, arrays and objects, no exotic escapes
//! beyond what the writers emit. This is a strict recursive-descent parser
//! over that subset, sufficient for `obs_diff` and for schema checks in
//! tests. Numbers are kept as `f64`; every counter the ObsReport holds is
//! far below 2^53, so the round-trip is exact.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (exact for integers up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key-sorted, which matches the deterministic writers.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The object's map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array's elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Every object's keys in document order, each with the object's path:
/// `""` for the root, dotted member names below it, and `[]` for the
/// elements of an array (`"metrics[]"`).
pub type KeyOrder = Vec<(String, Vec<String>)>;

/// Parses `text` as a single JSON document (trailing whitespace allowed).
pub fn parse(text: &str) -> Result<Json, String> {
    parse_keyed(text).map(|(doc, _)| doc)
}

/// [`parse`], also returning the keys of every object in document order —
/// the order and the duplicates that [`Json::Obj`] normalizes away, which
/// stability lints over writer output need to see.
pub fn parse_keyed(text: &str) -> Result<(Json, KeyOrder), String> {
    let bytes = text.as_bytes();
    let (mut pos, mut order) = (0, KeyOrder::new());
    let value = parse_value(bytes, &mut pos, "", &mut order)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok((value, order))
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", b as char))
    }
}

fn parse_value(
    bytes: &[u8],
    pos: &mut usize,
    path: &str,
    order: &mut KeyOrder,
) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos, path, order),
        Some(b'[') => parse_arr(bytes, pos, path, order),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
    text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number `{text}`: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = Vec::new();
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out).map_err(|e| e.to_string());
            }
            b'\\' => {
                *pos += 1;
                let esc = *bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        *pos += 4;
                        // The writers only escape control characters; no
                        // surrogate pairs to worry about.
                        let c = char::from_u32(code).ok_or("bad \\u escape")?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    other => return Err(format!("unsupported escape \\{}", other as char)),
                }
            }
            b => {
                out.push(b);
                *pos += 1;
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_arr(
    bytes: &[u8],
    pos: &mut usize,
    path: &str,
    order: &mut KeyOrder,
) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let path = format!("{path}[]");
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, &path, order)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn parse_obj(
    bytes: &[u8],
    pos: &mut usize,
    path: &str,
    order: &mut KeyOrder,
) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    let mut keys = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        order.push((path.to_string(), keys));
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let child = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
        let value = parse_value(bytes, pos, &child, order)?;
        keys.push(key.clone());
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                order.push((path.to_string(), keys));
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_obsreport_shapes() {
        let doc = parse(
            "{\n  \"counters\": {\"a.b\": 3},\n  \"gauges\": {},\n  \
             \"histograms\": {\"h\": {\"count\": 2, \"sum\": 10, \
             \"buckets\": [[0, 1], [3, 1]]}},\n  \"trace_events\": 7\n}\n",
        )
        .unwrap();
        assert_eq!(doc.get("counters").unwrap().get("a.b").unwrap().as_num(), Some(3.0));
        assert_eq!(doc.get("trace_events").unwrap().as_num(), Some(7.0));
        let hist = doc.get("histograms").unwrap().get("h").unwrap();
        let buckets = hist.get("buckets").unwrap().as_arr().unwrap();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[1].as_arr().unwrap()[0].as_num(), Some(3.0));
    }

    #[test]
    fn parses_strings_with_escapes() {
        let doc = parse(r#"{"k": "a\"b\\c\ndA"}"#).unwrap();
        assert_eq!(doc.get("k").unwrap().as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{} extra").is_err());
        assert!(parse("{\"a\": ").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn key_order_keeps_document_order_and_duplicates() {
        let text = r#"{"b": {"y": 1, "x": 2, "y": 3}, "a": [{"k": 1}], "c": {}}"#;
        let (doc, order) = parse_keyed(text).unwrap();
        assert_eq!(doc.get("b").unwrap().get("y").unwrap().as_num(), Some(3.0), "last wins");
        let keys = |path: &str| order.iter().find(|(p, _)| p == path).map(|(_, k)| k.clone());
        assert_eq!(keys(""), Some(vec!["b".into(), "a".into(), "c".into()]));
        assert_eq!(keys("b"), Some(vec!["y".into(), "x".into(), "y".into()]));
        assert_eq!(keys("a[]"), Some(vec!["k".into()]));
        assert_eq!(keys("c"), Some(vec![]));
    }

    #[test]
    fn parses_negative_and_float_numbers() {
        let doc = parse("[-3, 0.5, 1e3]").unwrap();
        let v = doc.as_arr().unwrap();
        assert_eq!(v[0].as_num(), Some(-3.0));
        assert_eq!(v[1].as_num(), Some(0.5));
        assert_eq!(v[2].as_num(), Some(1000.0));
    }
}
