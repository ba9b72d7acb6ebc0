//! Minimal JSON: the telemetry crate's escaping/number formatting for
//! the server's render paths and a small recursive-descent parser for
//! the client side (`tscoutctl`, tests) — the workspace builds
//! offline, so no serde.

use std::collections::BTreeMap;

/// The workspace's one escaper / number formatter, under the names
/// this crate's render paths (and `tsbench`) import.
pub use tscout_telemetry::{json_escape as escape, json_num as num};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
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
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// For a `{"columns":[...],"rows":[[...],...]}` table document: the
    /// cells of column `name`, one per row.
    pub fn column(&self, name: &str) -> Option<Vec<&Json>> {
        let columns = self.get("columns")?.as_arr()?;
        let i = columns.iter().position(|c| c.as_str() == Some(name))?;
        let rows = self.get("rows")?.as_arr()?;
        rows.iter().map(|r| r.as_arr()?.get(i)).collect()
    }

    /// Render a scalar for table display (strings unquoted).
    pub fn display(&self) -> String {
        match self {
            Json::Null => "NULL".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Num(n) => num(*n),
            Json::Str(s) => s.clone(),
            Json::Arr(_) | Json::Obj(_) => "<nested>".to_string(),
        }
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses per level, so hostile input (`[[[[...`) must hit an `Err`
/// before it hits the end of the stack; a flight-recorder bundle, the
/// deepest document this workspace writes, nests six levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b" \t\r\n".contains(b))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting too deep (more than {MAX_DEPTH} levels) at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogates degrade to the replacement char;
                            // the operator plane never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                _ => {
                    // Re-decode UTF-8 starting at the byte we consumed.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len()
                        && std::str::from_utf8(&self.bytes[start..end]).is_err()
                    {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "string is not UTF-8")?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(&b))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            out.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_typical_documents() {
        let doc = r#"{"table":"ts_stat_ou","columns":["ou","samples"],
                      "rows":[["ExecSeqScan",42],["WalWrite",-1.5]],
                      "armed":false,"note":"a\"b\\c\nd","none":null}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("table").unwrap().as_str(), Some("ts_stat_ou"));
        let rows = v.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].as_arr().unwrap()[1].as_f64(), Some(42.0));
        assert_eq!(rows[1].as_arr().unwrap()[1].as_f64(), Some(-1.5));
        assert_eq!(v.get("armed"), Some(&Json::Bool(false)));
        assert_eq!(v.get("none"), Some(&Json::Null));
        assert_eq!(v.get("note").unwrap().as_str(), Some("a\"b\\c\nd"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"x", "{\"a\" 1}"] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad}");
        }
        // Hostile nesting is an error, not a stack overflow.
        let deep = "[".repeat(1 << 20);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting too deep"), "{err}");
        // The cap itself is generous: MAX_DEPTH levels parse.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn table_json_round_trips_through_the_parser() {
        use tscout_telemetry::tables::rows_json;
        use tscout_telemetry::Cell;
        let text = "quote \" backslash \\ and\nnewline";
        let doc = rows_json(
            Some("t"),
            ["a\"b", "n"],
            &[
                vec![Cell::Text(text.into()), Cell::Null],
                vec![Cell::Float(f64::NAN), Cell::Float(-1.5)],
                vec![Cell::Bool(true), Cell::Int(-7)],
            ],
        );
        let v = Json::parse(&doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
        assert_eq!(v.get("table").unwrap().as_str(), Some("t"));
        let columns = v.get("columns").unwrap().as_arr().unwrap();
        assert_eq!(columns[0].as_str(), Some("a\"b"));
        assert_eq!(
            v.column("n").unwrap(),
            [&Json::Null, &Json::Num(-1.5), &Json::Num(-7.0)]
        );
        assert!(v.column("missing").is_none());
        let rows = v.get("rows").unwrap().as_arr().unwrap();
        let row = |i: usize| rows[i].as_arr().unwrap();
        assert_eq!(row(0), [Json::Str(text.into()), Json::Null]);
        // JSON has no NaN: a non-finite float reads back as null.
        assert_eq!(row(1), [Json::Null, Json::Num(-1.5)]);
        assert_eq!(row(2), [Json::Bool(true), Json::Num(-7.0)]);
        // An ad-hoc SQL result carries no table name.
        let anon = Json::parse(&rows_json(None, ["c"], &[])).unwrap();
        assert!(anon.get("table").is_none());
        assert_eq!(anon.get("rows"), Some(&Json::Arr(Vec::new())));
    }

    #[test]
    fn escape_and_num_are_inverse_of_parse() {
        let s = "weird \"quoted\" \\ line\nfeed";
        let doc = format!("{{\"k\":\"{}\"}}", escape(s));
        assert_eq!(
            Json::parse(&doc).unwrap().get("k").unwrap().as_str(),
            Some(s)
        );
        assert_eq!(num(3.0), "3");
        assert_eq!(num(3.25), "3.25");
        assert_eq!(num(f64::NAN), "null");
    }

    #[test]
    fn parses_unicode_strings() {
        let v = Json::parse("{\"k\":\"héllo → wörld\"}").unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("héllo → wörld"));
        let v = Json::parse(r#"{"k":"Aé"}"#).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("Aé"));
    }
}
