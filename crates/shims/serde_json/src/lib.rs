//! Workspace-local, std-only JSON front-end for the `serde` stand-in.
//!
//! Serialization lowers a type to [`serde::Value`] and prints it as JSON;
//! deserialization parses JSON into a `Value` and lifts it back through
//! `serde::Deserialize`. The printer is deterministic: object keys keep the
//! order the `Value` carries (struct declaration order from the derive, sorted
//! order for map/set containers), so equal values always print byte-identically.

use serde::{Deserialize, Serialize, Value};

/// Error raised by JSON printing or parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde_json: {}", self.0)
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

/// Serialize `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialize `value` to JSON indented with two spaces per level.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Serialize `value` to a compact JSON byte vector.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Float(x) => {
            if x.is_finite() {
                // Rust's shortest-roundtrip formatting; may omit ".0", which
                // still parses back as a numerically equal value.
                out.push_str(&x.to_string());
            } else {
                // JSON has no NaN/Infinity literal; match serde_json's lossy
                // default of writing null.
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            write_newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            write_newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn write_newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(step) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', step * depth));
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Deserialization
// ---------------------------------------------------------------------------

/// Parse JSON text and deserialize it into `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let value = parse_value_complete(s)?;
    T::from_value(&value).map_err(|e| Error(e.0))
}

/// Parse JSON bytes (must be UTF-8) and deserialize into `T`.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

/// Parse JSON text into the raw [`Value`] tree.
pub fn from_str_value(s: &str) -> Result<Value> {
    parse_value_complete(s)
}

/// Deepest array/object nesting the parser accepts — upstream
/// `serde_json`'s default recursion limit. The parser recurses once per
/// level, so without a cap hostile input (say 200 000 `[`s) would
/// overflow the stack instead of returning an [`Error`].
const MAX_DEPTH: usize = 128;

fn parse_value_complete(s: &str) -> Result<Value> {
    let bytes = s.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error(format!("trailing characters at byte {pos}")));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => *pos += 1,
            _ => break,
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<()> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(Error(format!("expected `{lit}` at byte {pos}", pos = *pos)))
    }
}

/// Parses one value nested `depth` containers deep.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth >= MAX_DEPTH {
        return Err(Error(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        )));
    }
    match bytes.get(*pos) {
        None => Err(Error("unexpected end of input".to_string())),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Value::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Value::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => {
                        return Err(Error(format!(
                            "expected `,` or `]` at byte {pos}",
                            pos = *pos
                        )))
                    }
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(Error(format!("expected `:` at byte {pos}", pos = *pos)));
                }
                *pos += 1;
                let val = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, val));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => {
                        return Err(Error(format!(
                            "expected `,` or `}}` at byte {pos}",
                            pos = *pos
                        )))
                    }
                }
            }
        }
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(other) => Err(Error(format!(
            "unexpected byte {other:#04x} at byte {pos}",
            pos = *pos
        ))),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error(format!("expected string at byte {pos}", pos = *pos)));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(Error("unterminated string".to_string())),
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
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        *pos += 1;
                        let hi = parse_hex4(bytes, pos)?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: expect \uXXXX low half.
                            expect(bytes, pos, "\\u")?;
                            let lo = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(Error("invalid low surrogate".to_string()));
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        let c = char::from_u32(code)
                            .ok_or_else(|| Error(format!("invalid unicode escape {code:#x}")))?;
                        out.push(c);
                        // parse_hex4 leaves pos just past the digits.
                        continue;
                    }
                    other => return Err(Error(format!("invalid escape {other:?}"))),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy a full UTF-8 character (input validated as &str).
                let s = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|e| Error(format!("invalid UTF-8 in string: {e}")))?;
                let c = s.chars().next().expect("non-empty by match");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32> {
    let slice = bytes
        .get(*pos..*pos + 4)
        .ok_or_else(|| Error("truncated \\u escape".to_string()))?;
    let s = std::str::from_utf8(slice).map_err(|_| Error("invalid \\u escape".to_string()))?;
    let v = u32::from_str_radix(s, 16).map_err(|_| Error(format!("invalid \\u escape `{s}`")))?;
    *pos += 4;
    Ok(v)
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII by construction");
    if is_float {
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|e| Error(format!("invalid number `{text}`: {e}")))
    } else if text.starts_with('-') {
        text.parse::<i64>()
            .map(Value::Int)
            .or_else(|_| text.parse::<f64>().map(Value::Float))
            .map_err(|e| Error(format!("invalid number `{text}`: {e}")))
    } else {
        text.parse::<u64>()
            .map(Value::UInt)
            .or_else(|_| text.parse::<f64>().map(Value::Float))
            .map_err(|e| Error(format!("invalid number `{text}`: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(to_string(&-7i32).unwrap(), "-7");
        assert_eq!(from_str::<i32>("-7").unwrap(), -7);
        assert_eq!(from_str::<f64>("2.5").unwrap(), 2.5);
        assert_eq!(from_str::<f64>("1e3").unwrap(), 1000.0);
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
    }

    #[test]
    fn float_without_fraction_round_trips_through_integer_token() {
        let json = to_string(&1.0f64).unwrap();
        assert_eq!(from_str::<f64>(&json).unwrap(), 1.0);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "line\nbreak \"quote\" back\\slash \u{1F980} tab\t";
        let json = to_string(original).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), original);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(from_str::<String>(r#""A🦀""#).unwrap(), "A\u{1F980}");
    }

    #[test]
    fn nested_containers_round_trip() {
        let v: Vec<Vec<u32>> = vec![vec![1, 2], vec![], vec![3]];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[[1,2],[],[3]]");
        assert_eq!(from_str::<Vec<Vec<u32>>>(&json).unwrap(), v);
    }

    #[test]
    fn pretty_printing_is_indented_and_parseable() {
        let v: Vec<u32> = vec![1, 2];
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(pretty, "[\n  1,\n  2\n]");
        assert_eq!(from_str::<Vec<u32>>(&pretty).unwrap(), v);
    }

    #[test]
    fn nesting_is_capped_at_the_recursion_limit() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(from_str_value(&nested(MAX_DEPTH)).is_ok());
        let err = from_str_value(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.0.contains("nesting deeper than 128"), "{err}");
        // Far past the limit: an error, not a stack overflow.
        assert!(from_str_value(&"[".repeat(200_000)).is_err());
        assert!(from_str_value(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(from_str::<u64>("42 junk").is_err());
        assert!(from_str::<Vec<u32>>("[1, 2").is_err());
    }
}
