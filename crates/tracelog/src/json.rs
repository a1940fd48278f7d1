//! The workspace's one JSON codec: the string escaper every hand-rolled
//! writer uses, a small depth-capped recursive-descent parser ([`Json`]),
//! and structural validation of exported Chrome/Perfetto traces.
//!
//! The build environment is offline, so no serde: this module
//! implements just enough of RFC 8259 to round-trip the workspace's own
//! output, ordinary foreign JSON and `cwfmem serve` request bodies.

use std::collections::BTreeMap;

/// Escape a string for embedding in a JSON document (without the
/// surrounding quotes).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

/// Deepest array/object nesting [`Json::parse`] accepts. The deepest
/// document the workspace writes (a `cwfmem.run.v1` bank entry) nests 5
/// levels; the cap only exists so hostile input (`[[[[…`) is an `Err`
/// instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object's members in source order (duplicates kept; [`Json::get`]
    /// answers with the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document.
    ///
    /// # Errors
    /// Returns a message with the byte offset of the first syntax error,
    /// on nesting deeper than [`MAX_DEPTH`], or on trailing garbage after
    /// the top-level value.
    pub fn parse(text: &str) -> Result<Json, String> {
        let b = text.as_bytes();
        let mut p = Parser { b, i: 0, depth: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.i != b.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    /// Object member lookup (the first occurrence of `key`); `None` for
    /// non-objects and missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an integer, if this is a whole number in `0..=2^53`
    /// (the range an `f64` holds exactly).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.i))
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.b.get(self.i) {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                self.err(&format!("nesting deeper than {MAX_DEPTH} levels"))
            }
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    /// Parse one array or object one level deeper.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }
    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            self.err("bad literal")
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let s = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        s.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        debug_assert_eq!(self.b[self.i], b'"');
        self.i += 1;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            // Surrogates are not paired; plain BMP is
                            // all the exporter emits.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.i += 1;
                }
                Some(&lead) => {
                    // Consume one UTF-8 scalar. The sequence length comes
                    // from the lead byte so only that slice is validated —
                    // validating `b[i..]` wholesale here would rescan the
                    // rest of the document per character (quadratic; a
                    // multi-MB trace took minutes to check).
                    let len = match lead {
                        0x00..=0x7F => 1,
                        0xC2..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF4 => 4,
                        _ => return self.err("invalid UTF-8"),
                    };
                    let chunk = self
                        .b
                        .get(self.i..self.i + len)
                        .ok_or_else(|| format!("truncated UTF-8 at byte {}", self.i))?;
                    let s = std::str::from_utf8(chunk)
                        .map_err(|_| format!("invalid UTF-8 at byte {}", self.i))?;
                    out.push_str(s);
                    self.i += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.i += 1; // '['
        let mut out = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.i += 1; // '{'
        let mut out = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            if self.b.get(self.i) != Some(&b'"') {
                return self.err("expected object key");
            }
            let key = self.string()?;
            self.skip_ws();
            if self.b.get(self.i) != Some(&b':') {
                return self.err("expected ':'");
            }
            self.i += 1;
            let v = self.value()?;
            out.push((key, v));
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Result of a successful [`validate_chrome_trace`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceCheck {
    /// Total entries in `traceEvents`.
    pub events: usize,
    /// Entries that are metadata (`"ph": "M"`).
    pub metadata: usize,
    /// Distinct `(pid, tid)` tracks seen.
    pub tracks: usize,
}

/// Structurally validate an exported Chrome/Perfetto trace:
/// the document parses, `traceEvents` is present, every entry carries
/// the required keys for its phase, and within each `(pid, tid)`
/// track timestamps are monotonically non-decreasing in array order.
///
/// # Errors
/// Returns a description of the first violation found.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceCheck, String> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing \"traceEvents\" array".to_string())?;
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut metadata = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        let pid = ev
            .get("pid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing \"pid\""))?;
        let tid = ev
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing \"tid\""))?;
        if ph == "M" {
            metadata += 1;
            continue;
        }
        if ev.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("event {i}: missing \"name\""));
        }
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing \"ts\""))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {i}: non-finite or negative ts"));
        }
        if ph == "X" && ev.get("dur").and_then(Json::as_f64).is_none() {
            return Err(format!("event {i}: complete event missing \"dur\""));
        }
        let key = (pid as u64, tid as u64);
        if let Some(prev) = last_ts.get(&key) {
            if ts < *prev {
                return Err(format!(
                    "event {i}: ts {ts} regresses below {prev} on track pid={} tid={}",
                    key.0, key.1
                ));
            }
        }
        last_ts.insert(key, ts);
    }
    Ok(ChromeTraceCheck { events: events.len(), metadata, tracks: last_ts.len() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_specials() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn parse_round_trip() {
        let v = Json::parse(r#"{"a": [1, -2.5, "x\ny", true, null], "b": {}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_f64(), Some(1.0));
        assert_eq!(v.get("b"), Some(&Json::Obj(Vec::new())));
        let v = Json::parse(r#"{"k": 1, "k": 2, "t": true}"#).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(1), "first key wins");
        assert_eq!(v.get("t").and_then(Json::as_bool), Some(true));
        assert!(v.get("missing").is_none());
        let v = Json::parse(r#""a\"b\\c\nd é héllo""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd é héllo"));
    }

    #[test]
    fn integers_stop_at_2_pow_53() {
        assert_eq!(Json::parse("1e3").unwrap().as_u64(), Some(1000));
        assert_eq!(Json::parse("9007199254740992").unwrap().as_u64(), Some(1 << 53));
        for n in ["-1", "1.5", "9007199254740994", "18446744073709551615"] {
            assert_eq!(Json::parse(n).unwrap().as_u64(), None, "{n}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        let deep_arr = "[".repeat(200_000);
        let deep_obj = "{\"a\":".repeat(200_000);
        for bad in ["{", "[1,]", "{} x", "nul", "\"unterminated", &deep_arr, &deep_obj] {
            assert!(Json::parse(bad).is_err(), "{}", &bad[..bad.len().min(20)]);
        }
        assert!(Json::parse(&deep_obj).unwrap_err().contains("nesting"));
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
    }

    #[test]
    fn validate_catches_ts_regression() {
        let good = r#"{"traceEvents": [
            {"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"c0"}},
            {"ph":"i","pid":1,"tid":0,"name":"a","ts":1.0,"s":"t"},
            {"ph":"i","pid":1,"tid":0,"name":"b","ts":2.0,"s":"t"}
        ]}"#;
        let c = validate_chrome_trace(good).unwrap();
        assert_eq!(c.events, 3);
        assert_eq!(c.metadata, 1);
        assert_eq!(c.tracks, 1);

        let bad = r#"{"traceEvents": [
            {"ph":"i","pid":1,"tid":0,"name":"a","ts":2.0},
            {"ph":"i","pid":1,"tid":0,"name":"b","ts":1.0}
        ]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("regresses"));
    }

    #[test]
    fn validate_requires_keys() {
        assert!(validate_chrome_trace(r#"{"other": 1}"#).is_err());
        let no_ts = r#"{"traceEvents": [{"ph":"i","pid":1,"tid":0,"name":"a"}]}"#;
        assert!(validate_chrome_trace(no_ts).unwrap_err().contains("ts"));
    }
}
