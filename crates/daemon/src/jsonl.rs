//! The daemon's wire format: one JSON object per line describing one
//! Coflow arrival.
//!
//! ```json
//! {"id": 17, "arrival_ms": 250, "flows": [[0, 3, 1000000], [2, 1, 500000]]}
//! ```
//!
//! * `id` — unique Coflow id (non-negative integer, required);
//! * `arrival_ms` — virtual arrival time in milliseconds, at most
//!   [`MAX_ARRIVAL_MS`] (optional; a line without it arrives "now", i.e.
//!   at the daemon's current clock);
//! * `flows` — non-empty array of `[src_port, dst_port, bytes]` triples.
//!
//! Why an arrival horizon: every instant the daemon plans is at most the
//! latest arrival, plus the admitted backlog's transmit demand, plus the
//! reconfiguration delays δ paid on the way. `Time::MAX` is 2^64 − 1 ps
//! (about 213 days), over 4.29 times [`MAX_ARRIVAL_MS`] = 2^32 ms (about
//! 49.7 days). The admission demand cap defaults to the same horizon
//! (`AdmissionConfig::max_outstanding`, and `--max-outstanding-secs` may
//! not exceed it), so arrival plus backlog stays within 2^33 ms and more
//! than 2^33 ms (about 99 days) of clock remain for the δs: over 8·10^9
//! reconfigurations at the daemon's default δ = 1 ms. A flow whose own
//! transfer time does not fit the clock is refused at admission as
//! `demand_cap`.
//!
//! The parser is a small hand-rolled recursive-descent JSON reader (the
//! workspace carries no external dependencies); unknown keys are ignored
//! so the format can grow.

use ocs_model::{Coflow, Time};
use std::collections::HashMap;
use std::fmt;

/// The latest `arrival_ms` a line may carry: 2^32 ms, about 49.7 days
/// (see the module docs for why the clock needs a horizon).
pub const MAX_ARRIVAL_MS: u64 = 1 << 32;

/// One parsed arrival line.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrivalSpec {
    /// Coflow id.
    pub id: u64,
    /// Virtual arrival time; `None` means "when the line is read".
    pub arrival_ms: Option<u64>,
    /// `(src, dst, bytes)` per flow.
    pub flows: Vec<(usize, usize, u64)>,
}

impl ArrivalSpec {
    /// Build the [`Coflow`] this line describes, defaulting a missing
    /// arrival to `default_arrival`.
    pub fn to_coflow(&self, default_arrival: Time) -> Coflow {
        let arrival = self.arrival_ms.map_or(default_arrival, Time::from_millis);
        let mut b = Coflow::builder(self.id).arrival(arrival);
        for &(src, dst, bytes) in &self.flows {
            b = b.flow(src, dst, bytes);
        }
        b.build()
    }

    /// Render the canonical JSONL line for this spec (what `gen` emits).
    pub fn render(&self) -> String {
        let flows: Vec<String> = self
            .flows
            .iter()
            .map(|(s, d, b)| format!("[{s}, {d}, {b}]"))
            .collect();
        match self.arrival_ms {
            Some(ms) => format!(
                "{{\"id\": {}, \"arrival_ms\": {}, \"flows\": [{}]}}",
                self.id,
                ms,
                flows.join(", ")
            ),
            None => format!("{{\"id\": {}, \"flows\": [{}]}}", self.id, flows.join(", ")),
        }
    }
}

/// Why a line was rejected by the parser.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable reason.
    pub reason: String,
    /// Byte offset in the line where parsing stopped (best effort).
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.reason, self.at)
    }
}

impl std::error::Error for ParseError {}

/// A parsed JSON value — just enough of the data model for the formats
/// the daemon speaks.
#[derive(Clone, Debug, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    /// All JSON numbers as f64; every quantity the daemon reads (ids,
    /// ports, byte counts, milliseconds) is well under 2^53.
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(HashMap<String, Value>),
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, reason: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            reason: reason.into(),
            at: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while self.pos < self.b.len() && self.b[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", c as char))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            self.err(format!("expected '{lit}'"))
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.b[start..self.pos]).expect("digits are UTF-8");
        match s.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Num(x)),
            _ => self.err(format!("bad number {s:?}")),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or(ParseError {
                        reason: "dangling escape".into(),
                        at: self.pos,
                    })?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.b.len() {
                                return self.err("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.b[self.pos..self.pos + 4]).ok();
                            let code = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
                            match code.and_then(char::from_u32) {
                                Some(c) => out.push(c),
                                // Surrogate pairs are beyond what this
                                // format needs; reject them plainly.
                                None => return self.err("unsupported \\u escape"),
                            }
                            self.pos += 4;
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest =
                        std::str::from_utf8(&self.b[self.pos..]).map_err(|_| ParseError {
                            reason: "invalid UTF-8".into(),
                            at: self.pos,
                        })?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut out = HashMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            out.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(out));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

fn as_u64(v: &Value, what: &str) -> Result<u64, ParseError> {
    match v {
        Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 9e15 => Ok(*x as u64),
        _ => Err(ParseError {
            reason: format!("{what} must be a non-negative integer"),
            at: 0,
        }),
    }
}

/// Parse one JSONL arrival line.
pub fn parse_line(line: &str) -> Result<ArrivalSpec, ParseError> {
    let mut p = Parser {
        b: line.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return p.err("trailing garbage after JSON object");
    }
    let Value::Obj(obj) = v else {
        return Err(ParseError {
            reason: "arrival line must be a JSON object".into(),
            at: 0,
        });
    };
    let id = as_u64(
        obj.get("id").ok_or(ParseError {
            reason: "missing \"id\"".into(),
            at: 0,
        })?,
        "\"id\"",
    )?;
    let arrival_ms = obj
        .get("arrival_ms")
        .map(|v| as_u64(v, "\"arrival_ms\""))
        .transpose()?;
    if arrival_ms.is_some_and(|ms| ms > MAX_ARRIVAL_MS) {
        return Err(ParseError {
            reason: format!("\"arrival_ms\" must be at most {MAX_ARRIVAL_MS}"),
            at: 0,
        });
    }
    let Some(Value::Arr(raw_flows)) = obj.get("flows") else {
        return Err(ParseError {
            reason: "missing or non-array \"flows\"".into(),
            at: 0,
        });
    };
    if raw_flows.is_empty() {
        return Err(ParseError {
            reason: "\"flows\" must be non-empty".into(),
            at: 0,
        });
    }
    let mut flows = Vec::with_capacity(raw_flows.len());
    for f in raw_flows {
        let Value::Arr(t) = f else {
            return Err(ParseError {
                reason: "each flow must be [src, dst, bytes]".into(),
                at: 0,
            });
        };
        if t.len() != 3 {
            return Err(ParseError {
                reason: "each flow must be [src, dst, bytes]".into(),
                at: 0,
            });
        }
        let src = as_u64(&t[0], "flow src")? as usize;
        let dst = as_u64(&t[1], "flow dst")? as usize;
        let bytes = as_u64(&t[2], "flow bytes")?;
        if bytes == 0 {
            return Err(ParseError {
                reason: "flow bytes must be positive".into(),
                at: 0,
            });
        }
        flows.push((src, dst, bytes));
    }
    Ok(ArrivalSpec {
        id,
        arrival_ms,
        flows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_canonical_line() {
        let s =
            parse_line(r#"{"id": 17, "arrival_ms": 250, "flows": [[0, 3, 1000000], [2, 1, 5]]}"#)
                .unwrap();
        assert_eq!(s.id, 17);
        assert_eq!(s.arrival_ms, Some(250));
        assert_eq!(s.flows, vec![(0, 3, 1_000_000), (2, 1, 5)]);
        let edge = format!(r#"{{"id": 1, "arrival_ms": {MAX_ARRIVAL_MS}, "flows": [[0, 1, 9]]}}"#);
        assert_eq!(parse_line(&edge).unwrap().arrival_ms, Some(MAX_ARRIVAL_MS));
    }

    #[test]
    fn arrival_is_optional_and_unknown_keys_ignored() {
        let s = parse_line(r#"{"id": 1, "flows": [[0, 1, 9]], "note": "hi", "x": null}"#).unwrap();
        assert_eq!(s.arrival_ms, None);
        let c = s.to_coflow(Time::from_millis(42));
        assert_eq!(c.arrival(), Time::from_millis(42));
        assert_eq!(c.num_flows(), 1);
    }

    #[test]
    fn render_round_trips() {
        let spec = ArrivalSpec {
            id: 9,
            arrival_ms: Some(1234),
            flows: vec![(0, 1, 1_000_000), (3, 2, 77)],
        };
        assert_eq!(parse_line(&spec.render()).unwrap(), spec);
        let no_arrival = ArrivalSpec {
            arrival_ms: None,
            ..spec
        };
        assert_eq!(parse_line(&no_arrival.render()).unwrap(), no_arrival);
    }

    #[test]
    fn rejects_malformed_lines() {
        for (line, needle) in [
            ("", "expected a JSON value"),
            ("[1, 2]", "must be a JSON object"),
            (r#"{"flows": [[0, 1, 9]]}"#, "missing \"id\""),
            (r#"{"id": -3, "flows": [[0, 1, 9]]}"#, "non-negative"),
            (
                r#"{"id": 1.5, "flows": [[0, 1, 9]]}"#,
                "non-negative integer",
            ),
            (r#"{"id": 1}"#, "\"flows\""),
            (r#"{"id": 1, "flows": []}"#, "non-empty"),
            (r#"{"id": 1, "flows": [[0, 1]]}"#, "[src, dst, bytes]"),
            (r#"{"id": 1, "flows": [[0, 1, 0]]}"#, "positive"),
            (
                r#"{"id": 1, "arrival_ms": 4294967297, "flows": [[0, 1, 9]]}"#,
                "\"arrival_ms\" must be at most",
            ),
            (r#"{"id": 1, "flows": [[0, 1, 9]]} extra"#, "trailing"),
            (r#"{"id": 1, "flows": [[0, 1, 9]"#, "expected"),
        ] {
            let e = parse_line(line).expect_err(line);
            assert!(
                e.reason.contains(needle),
                "line {line:?}: got {:?}, wanted {needle:?}",
                e.reason
            );
        }
    }

    #[test]
    fn strings_and_escapes() {
        let s = parse_line(r#"{"id": 2, "flows": [[1, 2, 3]], "note": "a\"b\\c\ndA"}"#);
        assert!(s.is_ok(), "{s:?}");
    }
}
