//! The one flat-JSON writer and reader of the workspace.
//!
//! Snapshots, Chrome traces and audit transcripts write strings through
//! [`escape`]; snapshots and transcripts read their lines back through
//! [`parse_flat`]. It accepts exactly what they emit — one flat
//! `{"key":value,...}` object whose values are strings or integers, in
//! any key order — and is not a general JSON parser.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::iter::Peekable;
use std::str::Chars;

/// `s` as a quoted JSON string.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One value of a flat object.
#[derive(Debug)]
pub enum Value {
    /// A string.
    Str(String),
    /// An integer.
    Int(i128),
}

impl Value {
    /// The string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Int(_) => None,
        }
    }

    /// The integer, if it is one.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Str(_) => None,
        }
    }
}

/// Parses one flat `{"key":value,...}` object with string/integer values.
///
/// # Errors
///
/// Describes the first malformed token.
pub fn parse_flat(line: &str) -> Result<BTreeMap<String, Value>, String> {
    let mut chars = line.chars().peekable();
    let mut fields = BTreeMap::new();
    skip_ws(&mut chars);
    expect(&mut chars, '{')?;
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
        return Ok(fields);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        expect(&mut chars, ':')?;
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some('"') => Value::Str(parse_string(&mut chars)?),
            Some(c) if *c == '-' || c.is_ascii_digit() => {
                let mut num = String::new();
                while let Some(&c) = chars.peek() {
                    if c == '-' || c.is_ascii_digit() {
                        num.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                Value::Int(num.parse().map_err(|_| format!("bad number {num:?}"))?)
            }
            other => return Err(format!("unexpected value start {other:?}")),
        };
        fields.insert(key, value);
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => continue,
            Some('}') => break,
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
    Ok(fields)
}

fn skip_ws(chars: &mut Peekable<Chars<'_>>) {
    while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
        chars.next();
    }
}

fn expect(chars: &mut Peekable<Chars<'_>>, want: char) -> Result<(), String> {
    match chars.next() {
        Some(c) if c == want => Ok(()),
        other => Err(format!("expected {want:?}, got {other:?}")),
    }
}

fn parse_string(chars: &mut Peekable<Chars<'_>>) -> Result<String, String> {
    expect(chars, '"')?;
    let mut out = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = (0..4).map(|_| chars.next().unwrap_or('\u{0}')).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                    out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) => out.push(c),
            None => return Err("unterminated string".into()),
        }
    }
}
