//! Hand-rolled, allocation-lean NDJSON record reader.
//!
//! Parses newline-delimited JSON over the subset sensor traces actually
//! use: one **flat object** per line whose values are numbers,
//! escape-free strings, `true`/`false`, `null`, or arrays of numbers
//! (`null` allowed inside arrays to mark a missing sample). Nested
//! objects, nested arrays and string escapes are rejected with the line
//! and column — this is a documented subset, not a lenient guesser.
//!
//! Like [`super::csv`], the reader owns one line buffer plus reusable
//! key/value/number vectors; records (`NdjsonRecord`) are borrowed
//! views valid until the next `NdjsonReader::next_record` call, so
//! steady-state reading performs no per-record allocations beyond
//! first-time buffer growth.

use std::io::BufRead;

use crate::ingest::csv::BOM;
use crate::source::IngestError;

/// A value in a parsed NDJSON record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum JsonValue<'a> {
    /// A JSON number.
    Number(f32),
    /// An (escape-free) JSON string.
    Str(&'a str),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// An array of numbers; `null` elements surface as `NaN` (JSON has
    /// no NaN literal, so the sentinel is unambiguous) and are treated
    /// as missing by the ingestion policy.
    Numbers(&'a [f32]),
}

/// Internal value representation holding ranges into the reader buffers.
#[derive(Debug, Clone, Copy)]
enum RawValue {
    Number(f32),
    Str(usize, usize),
    Bool(bool),
    Null,
    Array(usize, usize), // start, len into the numbers buffer
}

/// A streaming NDJSON reader over any [`BufRead`].
#[derive(Debug)]
pub(crate) struct NdjsonReader<R> {
    src: R,
    name: String,
    line: String,
    line_no: u64,
    keys: Vec<(usize, usize)>,
    values: Vec<RawValue>,
    numbers: Vec<f32>,
}

impl<R: BufRead> NdjsonReader<R> {
    /// Creates a reader. `name` is the logical trace name used in I/O
    /// error reports.
    pub fn new(src: R, name: impl Into<String>) -> Self {
        Self {
            src,
            name: name.into(),
            line: String::new(),
            line_no: 0,
            keys: Vec::new(),
            values: Vec::new(),
            numbers: Vec::new(),
        }
    }

    /// Reads and parses the next record, skipping blank and `#`-comment
    /// lines. Returns `Ok(None)` at end of input. The returned record
    /// borrows the reader's buffers and is valid until the next call.
    pub(crate) fn next_record(&mut self) -> Result<Option<NdjsonRecord<'_>>, IngestError> {
        loop {
            self.line.clear();
            let read = self.src.read_line(&mut self.line).map_err(|e| IngestError::Io {
                name: self.name.clone(),
                line: self.line_no,
                source: e,
            })?;
            if read == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            if self.line_no == 1 {
                // Strip a UTF-8 BOM off the very first line of the file
                // (tool exports prepend one; it would otherwise be read
                // as object bytes and fail `expect('{')`).
                if self.line.starts_with(BOM) {
                    self.line.drain(..BOM.len());
                }
            }
            while self.line.ends_with('\n') || self.line.ends_with('\r') {
                self.line.pop();
            }
            let trimmed = self.line.trim_start();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            break;
        }
        self.keys.clear();
        self.values.clear();
        self.numbers.clear();
        let mut p = Parser { bytes: self.line.as_bytes(), pos: 0, line: self.line_no };
        p.skip_ws();
        p.expect(b'{')?;
        p.skip_ws();
        if !p.eat(b'}') {
            loop {
                p.skip_ws();
                let key = p.string_range()?;
                p.skip_ws();
                p.expect(b':')?;
                p.skip_ws();
                let value = p.value(&mut self.numbers)?;
                self.keys.push(key);
                self.values.push(value);
                p.skip_ws();
                if p.eat(b',') {
                    continue;
                }
                p.expect(b'}')?;
                break;
            }
        }
        p.skip_ws();
        if p.pos < p.bytes.len() {
            return Err(p.error("trailing characters after the JSON object"));
        }
        Ok(Some(NdjsonRecord {
            line_no: self.line_no,
            line: &self.line,
            keys: &self.keys,
            values: &self.values,
            numbers: &self.numbers,
        }))
    }
}

/// Cursor-based parser over one line.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u64,
}

impl Parser<'_> {
    fn error(&self, message: impl std::fmt::Display) -> IngestError {
        IngestError::Parse { line: self.line, message: format!("col {}: {message}", self.pos + 1) }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), IngestError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected {:?}, found {}",
                b as char,
                match self.peek() {
                    Some(c) => format!("{:?}", c as char),
                    None => "end of line".into(),
                }
            )))
        }
    }

    /// Parses a string, returning its contents' byte range (quotes
    /// excluded). Escapes are rejected — see the module docs.
    fn string_range(&mut self) -> Result<(usize, usize), IngestError> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.peek() {
                Some(b'"') => {
                    let end = self.pos;
                    self.pos += 1;
                    return Ok((start, end));
                }
                Some(b'\\') => {
                    return Err(
                        self.error("string escapes are not supported by the NDJSON trace subset")
                    );
                }
                Some(_) => self.pos += 1,
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Parses a JSON number (strict JSON grammar — no `inf`/`NaN`
    /// spellings, which `f32::parse` would otherwise accept).
    fn number(&mut self) -> Result<f32, IngestError> {
        let start = self.pos;
        self.eat(b'-');
        let digits_from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(self.error("expected a number"));
        }
        if self.eat(b'.') {
            let frac_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err(self.error("expected digits after the decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(self.error("expected digits in the exponent"));
            }
        }
        // Invariant: every byte consumed since `start` matched an ASCII class.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f32>().map_err(|_| self.error(format!("invalid number {text:?}")))
    }

    fn keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    /// Parses one value; array elements are appended to `numbers`.
    fn value(&mut self, numbers: &mut Vec<f32>) -> Result<RawValue, IngestError> {
        match self.peek() {
            Some(b'"') => {
                let (s, e) = self.string_range()?;
                Ok(RawValue::Str(s, e))
            }
            Some(b'[') => {
                self.pos += 1;
                let start = numbers.len();
                self.skip_ws();
                if !self.eat(b']') {
                    loop {
                        self.skip_ws();
                        if self.keyword("null") {
                            numbers.push(f32::NAN);
                        } else {
                            numbers.push(self.number()?);
                        }
                        self.skip_ws();
                        if self.eat(b',') {
                            continue;
                        }
                        self.expect(b']')?;
                        break;
                    }
                }
                Ok(RawValue::Array(start, numbers.len() - start))
            }
            Some(b't') if self.keyword("true") => Ok(RawValue::Bool(true)),
            Some(b'f') if self.keyword("false") => Ok(RawValue::Bool(false)),
            Some(b'n') if self.keyword("null") => Ok(RawValue::Null),
            Some(b'{') => {
                Err(self.error("nested objects are not supported by the NDJSON trace subset"))
            }
            _ => self.number().map(RawValue::Number),
        }
    }
}

/// One parsed NDJSON record: a borrowed view into the reader's buffers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NdjsonRecord<'a> {
    line_no: u64,
    line: &'a str,
    keys: &'a [(usize, usize)],
    values: &'a [RawValue],
    numbers: &'a [f32],
}

impl<'a> NdjsonRecord<'a> {
    /// 1-based line number this record came from.
    pub(crate) fn line_number(&self) -> u64 {
        self.line_no
    }

    /// Looks a key up (first match wins).
    pub fn get(&self, key: &str) -> Option<JsonValue<'a>> {
        let idx = self.keys.iter().position(|&(s, e)| &self.line[s..e] == key)?;
        Some(match self.values[idx] {
            RawValue::Number(v) => JsonValue::Number(v),
            RawValue::Str(s, e) => JsonValue::Str(&self.line[s..e]),
            RawValue::Bool(b) => JsonValue::Bool(b),
            RawValue::Null => JsonValue::Null,
            RawValue::Array(start, len) => JsonValue::Numbers(&self.numbers[start..start + len]),
        })
    }

    fn missing(&self, key: &str, what: &str) -> IngestError {
        IngestError::Parse {
            line: self.line_no,
            message: format!("missing or mistyped field {key:?} (expected {what})"),
        }
    }

    /// A required non-negative integer field.
    pub fn integer(&self, key: &str) -> Result<usize, IngestError> {
        match self.get(key) {
            Some(JsonValue::Number(v)) if v >= 0.0 && v.fract() == 0.0 => Ok(v as usize),
            _ => Err(self.missing(key, "a non-negative integer")),
        }
    }

    /// A required array-of-numbers field (missing samples are `NaN`).
    pub fn numbers(&self, key: &str) -> Result<&'a [f32], IngestError> {
        match self.get(key) {
            Some(JsonValue::Numbers(v)) => Ok(v),
            _ => Err(self.missing(key, "an array of numbers")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn reader(text: &str) -> NdjsonReader<Cursor<&str>> {
        NdjsonReader::new(Cursor::new(text), "test.ndjson")
    }

    #[test]
    fn parses_flat_objects() {
        let mut r = reader(
            "# header comment\n{\"ch\": [1.5, -2e1, null], \"activity\": 3, \"tag\": \"walk\", \
             \"ok\": true, \"gap\": null}\n",
        );
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.line_number(), 2);
        assert_eq!(rec.keys.len(), 5);
        let ch = rec.numbers("ch").unwrap();
        assert_eq!(ch.len(), 3);
        assert_eq!(ch[0], 1.5);
        assert_eq!(ch[1], -20.0);
        assert!(ch[2].is_nan(), "null array element must surface as NaN");
        assert_eq!(rec.integer("activity").unwrap(), 3);
        assert_eq!(rec.get("tag"), Some(JsonValue::Str("walk")));
        assert_eq!(rec.get("ok"), Some(JsonValue::Bool(true)));
        assert_eq!(rec.get("gap"), Some(JsonValue::Null));
        assert_eq!(rec.get("nope"), None);
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn buffers_are_reused_across_records() {
        let mut r = reader("{\"a\": [1, 2, 3, 4]}\n{\"a\": [5]}\n");
        let first: Vec<f32> = r.next_record().unwrap().unwrap().numbers("a").unwrap().to_vec();
        assert_eq!(first, vec![1.0, 2.0, 3.0, 4.0]);
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.numbers("a").unwrap(), &[5.0]);
    }

    #[test]
    fn malformed_json_reports_line_and_column() {
        let mut r = reader("{\"a\": 1}\n{\"a\": }\n");
        let _ = r.next_record().unwrap().unwrap();
        let err = r.next_record().unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("col 7"), "{err}");
    }

    #[test]
    fn rejects_non_object_lines() {
        let mut r = reader("[1, 2]\n");
        let err = r.next_record().unwrap_err();
        assert_eq!(err.line(), 1);
        assert!(err.to_string().contains("expected '{'"), "{err}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut r = reader("{\"a\": 1} extra\n");
        let err = r.next_record().unwrap_err();
        assert!(err.to_string().contains("trailing characters"), "{err}");
    }

    #[test]
    fn rejects_nested_objects_and_escapes() {
        let err = reader("{\"a\": {\"b\": 1}}\n").next_record().unwrap_err();
        assert!(err.to_string().contains("nested objects"), "{err}");
        let err = reader("{\"a\\n\": 1}\n").next_record().unwrap_err();
        assert!(err.to_string().contains("escapes"), "{err}");
    }

    #[test]
    fn rejects_non_json_number_spellings() {
        for bad in ["{\"a\": NaN}", "{\"a\": inf}", "{\"a\": .5}", "{\"a\": 1.}"] {
            let err = reader(bad).next_record().unwrap_err();
            assert_eq!(err.line(), 1, "{bad} must fail");
        }
        // But strict JSON numbers all work.
        let mut r = reader("{\"a\": [-0.5, 1e-3, 2E+2, 0]}\n");
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.numbers("a").unwrap(), &[-0.5, 0.001, 200.0, 0.0]);
    }

    #[test]
    fn empty_object_and_blank_lines() {
        let mut r = reader("\n{}\n\n");
        let rec = r.next_record().unwrap().unwrap();
        assert!(rec.keys.is_empty());
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn bom_is_stripped_from_the_first_line_only() {
        let mut r = reader("\u{feff}{\"a\": 1}\n");
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.get("a"), Some(JsonValue::Number(1.0)));
        // Past the first line BOM bytes are corruption, not a mark.
        let mut r = reader("{\"a\": 1}\n\u{feff}{\"a\": 1}\n");
        let _ = r.next_record().unwrap().unwrap();
        let err = r.next_record().unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("expected '{'"), "{err}");
    }

    #[test]
    fn mistyped_field_errors_carry_line_numbers() {
        let mut r = reader("{\"activity\": \"three\", \"ch\": 7}\n");
        let rec = r.next_record().unwrap().unwrap();
        let err = rec.integer("activity").unwrap_err();
        assert_eq!(err.line(), 1);
        assert!(err.to_string().contains("\"activity\""), "{err}");
        assert!(rec.numbers("ch").is_err());
    }
}
