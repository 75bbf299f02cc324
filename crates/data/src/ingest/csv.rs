//! Hand-rolled, allocation-lean CSV record reader.
//!
//! `CsvReader` is the streaming reader over any [`BufRead`]: one
//! reusable line buffer and one reusable field-bounds vector serve the
//! whole stream, so steady-state reading allocates only when a line is
//! longer than every line before it. Records are borrowed views
//! (`CsvRecord`), valid until the next `CsvReader::next_record` call.
//! It is also the reference every other path is tested against, and the
//! only code that renders a line-numbered error.
//!
//! The dialect itself — what ends a line, which lines are skipped, where
//! fields split, what counts as missing, how a field parses — lives in
//! the free functions and `CsvRecord` methods below, so the in-place
//! scanner of [`super::chunked`] applies exactly the same rules to
//! sub-slices of one in-memory text, without the per-line copy. That
//! scanner reads one plain record shape itself, and only where it gets
//! `std`'s bits; for every other field `std`'s parsers are the reference.
//!
//! Dialect: fields split at every `,` (empty fields preserved, so `1,,3`
//! has a *missing* middle field) and trimmed of ASCII whitespace; lines
//! that are blank or start with `#` after trimming leading *Unicode*
//! whitespace are skipped; CRLF (and `\r\r\n`) line endings are
//! tolerated; a UTF-8 BOM is stripped off the file's first line only.
//! Quoting is **not** supported — the sensor traces this reads are
//! numeric, and a stray quote fails loudly with its line number instead
//! of being guessed at.

use std::io::BufRead;

use crate::source::IngestError;

/// Field spellings treated as a missing value (case-insensitive):
/// the empty field, `?`, `nan`, `na`, and `null`.
#[inline]
fn is_missing_marker(field: &str) -> bool {
    field.is_empty()
        || field == "?"
        || field.eq_ignore_ascii_case("nan")
        || field.eq_ignore_ascii_case("na")
        || field.eq_ignore_ascii_case("null")
}

/// The UTF-8 byte-order mark some exporters prepend to a file.
pub(crate) const BOM: &str = "\u{feff}";

/// `line` without its line ending: a trailing `\n` and every `\r` before
/// it (so `\r\r\n` is one ending, and a final line may have none).
pub(crate) fn strip_eol(line: &str) -> &str {
    line.trim_end_matches(['\n', '\r'])
}

/// Whether a line (ending already stripped) holds no record: blank, or a
/// `#` comment, after leading whitespace in the Unicode sense.
pub(crate) fn is_skipped(line: &str) -> bool {
    let trimmed = line.trim_start();
    trimmed.is_empty() || trimmed.starts_with('#')
}

/// Splits a record line at every `,` into trimmed field bounds (byte
/// ranges of `line`), replacing the contents of `bounds`.
pub(crate) fn split_fields(line: &str, bounds: &mut Vec<(usize, usize)>) {
    bounds.clear();
    let bytes = line.as_bytes();
    let mut start = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b',' {
            bounds.push(trim_bounds(line, start, i));
            start = i + 1;
        }
    }
    bounds.push(trim_bounds(line, start, bytes.len()));
}

/// A streaming CSV reader over any [`BufRead`].
#[derive(Debug)]
pub(crate) struct CsvReader<R> {
    src: R,
    name: String,
    line: String,
    bounds: Vec<(usize, usize)>,
    line_no: u64,
}

impl<R: BufRead> CsvReader<R> {
    /// Creates a comma-delimited reader. `name` is the logical trace name
    /// used in I/O error reports (keep it relative/stable so repro output
    /// stays byte-identical).
    pub fn new(src: R, name: impl Into<String>) -> Self {
        Self { src, name: name.into(), line: String::new(), bounds: Vec::new(), line_no: 0 }
    }

    /// Reads the next data record, skipping blank and `#`-comment lines.
    /// Returns `Ok(None)` at end of input. The returned record borrows
    /// the reader's buffers and is valid until the next call.
    pub(crate) fn next_record(&mut self) -> Result<Option<CsvRecord<'_>>, IngestError> {
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
                // (spreadsheet exports prepend one; it would otherwise
                // read as field bytes and raise a spurious parse error).
                if self.line.starts_with(BOM) {
                    self.line.drain(..BOM.len());
                }
            }
            let content = strip_eol(&self.line).len();
            self.line.truncate(content);
            if !is_skipped(&self.line) {
                break;
            }
        }
        split_fields(&self.line, &mut self.bounds);
        Ok(Some(CsvRecord::new(self.line_no, &self.line, &self.bounds)))
    }
}

/// Trims ASCII whitespace off a half-open byte range of `line`.
fn trim_bounds(line: &str, mut start: usize, mut end: usize) -> (usize, usize) {
    let bytes = line.as_bytes();
    while start < end && bytes[start].is_ascii_whitespace() {
        start += 1;
    }
    while end > start && bytes[end - 1].is_ascii_whitespace() {
        end -= 1;
    }
    (start, end)
}

/// One parsed CSV record: a borrowed view into the reader's buffers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CsvRecord<'a> {
    line_no: u64,
    line: &'a str,
    bounds: &'a [(usize, usize)],
}

impl<'a> CsvRecord<'a> {
    /// A record over `line` and the field bounds [`split_fields`] gave it.
    pub(crate) fn new(line_no: u64, line: &'a str, bounds: &'a [(usize, usize)]) -> Self {
        Self { line_no, line, bounds }
    }

    /// 1-based line number this record came from.
    pub(crate) fn line_number(&self) -> u64 {
        self.line_no
    }

    /// Number of fields.
    #[inline]
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// Whether the record has no fields (cannot happen for records
    /// returned by [`CsvReader::next_record`], which skips blank lines).
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// Field `i`, trimmed.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn field(&self, i: usize) -> &str {
        let (start, end) = self.bounds[i];
        &self.line[start..end]
    }

    /// Fails unless the record has between `min` and `max` fields.
    #[inline]
    pub(crate) fn expect_fields(&self, min: usize, max: usize) -> Result<(), IngestError> {
        if self.len() < min || self.len() > max {
            let expected = if min == max { format!("{min}") } else { format!("{min}..={max}") };
            return Err(IngestError::Parse {
                line: self.line_no,
                message: format!("expected {expected} fields, got {}", self.len()),
            });
        }
        Ok(())
    }

    /// Parses field `i` as `f32`; `Ok(None)` when the field is a missing
    /// marker (empty, `?`, `nan`, `na`, `null` — see module docs).
    #[inline]
    pub(crate) fn parse_f32(&self, i: usize) -> Result<Option<f32>, IngestError> {
        let field = self.field(i);
        if is_missing_marker(field) {
            return Ok(None);
        }
        field.parse::<f32>().map(Some).map_err(|_| IngestError::Parse {
            line: self.line_no,
            message: format!("field {} ({field:?}) is not a number", i + 1),
        })
    }

    /// Parses field `i` as a non-negative integer.
    #[inline]
    pub(crate) fn parse_usize(&self, i: usize) -> Result<usize, IngestError> {
        let field = self.field(i);
        field.parse::<usize>().map_err(|_| IngestError::Parse {
            line: self.line_no,
            message: format!("field {} ({field:?}) is not a non-negative integer", i + 1),
        })
    }

    /// Whether this record looks like a header row: every field is
    /// non-missing, fails to parse as a number, **and starts with an
    /// ASCII letter or underscore** (the shape of a column name). The
    /// last condition keeps a merely *malformed* first reading — e.g.
    /// `12..5` in a label-less trace — from being silently swallowed as
    /// a header, which would shift every later day window by one
    /// reading; such lines raise their line-numbered parse error
    /// instead.
    pub(crate) fn looks_like_header(&self) -> bool {
        !self.is_empty()
            && (0..self.len()).all(|i| {
                let f = self.field(i);
                !is_missing_marker(f)
                    && f.parse::<f32>().is_err()
                    && f.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn reader(text: &str) -> CsvReader<Cursor<&str>> {
        CsvReader::new(Cursor::new(text), "test.csv")
    }

    #[test]
    fn reads_records_with_line_numbers() {
        let mut r = reader("# comment\n1.5,2\n\n3.5,4\n");
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.line_number(), 2);
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.parse_f32(0).unwrap(), Some(1.5));
        assert_eq!(rec.parse_usize(1).unwrap(), 2);
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.line_number(), 4);
        assert_eq!(rec.field(0), "3.5");
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn crlf_and_field_whitespace_are_tolerated() {
        let mut r = reader(" 1.0 , 2.0 \r\n");
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.field(0), "1.0");
        assert_eq!(rec.field(1), "2.0");
    }

    #[test]
    fn empty_and_marker_fields_are_missing() {
        let mut r = reader("1,,3\n?,NaN,na\nNULL,2,3\n");
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.parse_f32(1).unwrap(), None);
        let rec = r.next_record().unwrap().unwrap();
        for i in 0..3 {
            assert_eq!(rec.parse_f32(i).unwrap(), None, "field {i}");
        }
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.parse_f32(0).unwrap(), None);
        assert_eq!(rec.parse_f32(1).unwrap(), Some(2.0));
    }

    #[test]
    fn malformed_field_reports_line_and_field() {
        let mut r = reader("1.0\nabc\n");
        let _ = r.next_record().unwrap().unwrap();
        let rec = r.next_record().unwrap().unwrap();
        let err = rec.parse_f32(0).unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("\"abc\""), "{err}");
    }

    #[test]
    fn arity_check_reports_line() {
        let mut r = reader("1,2,3\n");
        let rec = r.next_record().unwrap().unwrap();
        let err = rec.expect_fields(1, 2).unwrap_err();
        assert_eq!(err.line(), 1);
        assert!(err.to_string().contains("expected 1..=2 fields, got 3"), "{err}");
        assert!(rec.expect_fields(3, 3).is_ok());
    }

    #[test]
    fn header_detection() {
        let mut r = reader("value,label\n1.0,0\n");
        let rec = r.next_record().unwrap().unwrap();
        assert!(rec.looks_like_header());
        let rec = r.next_record().unwrap().unwrap();
        assert!(!rec.looks_like_header());
    }

    #[test]
    fn malformed_numbers_are_not_headers() {
        // A corrupted first reading must raise its parse error, not be
        // silently swallowed as a header (which would misalign every
        // later fixed-length window by one reading).
        for line in ["12..5", "1.2.3,0", "-"] {
            let text = format!("{line}\n");
            let mut r = reader(&text);
            let rec = r.next_record().unwrap().unwrap();
            assert!(!rec.looks_like_header(), "{line:?} mistaken for a header");
        }
        let mut r = reader("_ts,demand\n");
        assert!(r.next_record().unwrap().unwrap().looks_like_header());
    }

    #[test]
    fn bom_is_stripped_from_the_first_line_only() {
        // BOM before a header line: the header still looks like one.
        let mut r = reader("\u{feff}value,label\n1.0,0\n");
        let rec = r.next_record().unwrap().unwrap();
        assert!(rec.looks_like_header(), "BOM must not hide the header");
        // BOM before a data line: the first field parses.
        let mut r = reader("\u{feff}1.5,2\n");
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.parse_f32(0).unwrap(), Some(1.5));
    }

    #[test]
    fn mid_file_bom_is_data_not_a_mark() {
        let mut r = reader("7.5\n\u{feff}1.5\n");
        let _ = r.next_record().unwrap().unwrap();
        let err = r.next_record().unwrap().unwrap().parse_f32(0).unwrap_err();
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn line_rules_treat_unicode_and_ascii_whitespace_differently() {
        // Leading whitespace is skipped in the Unicode sense when deciding
        // whether a line is blank or a comment...
        assert!(is_skipped("\u{a0}# note"));
        assert!(is_skipped("\u{2003}\t"));
        assert!(is_skipped("\x0b"));
        assert!(!is_skipped("\u{feff}# a BOM is not whitespace"));
        // ...but fields are trimmed of ASCII whitespace only.
        let mut bounds = Vec::new();
        let line = " 1.5\u{a0}\t, 2 ";
        split_fields(line, &mut bounds);
        let fields: Vec<&str> = bounds.iter().map(|&(a, b)| &line[a..b]).collect();
        assert_eq!(fields, ["1.5\u{a0}", "2"]);
        // One ending may hold several carriage returns; an inner one is data.
        assert_eq!(strip_eol("1,0\r\r\n"), "1,0");
        assert_eq!(strip_eol("1,0\r2"), "1,0\r2");
        assert_eq!(strip_eol("1,0"), "1,0");
    }

    #[test]
    fn invalid_utf8_is_an_io_error_not_a_panic() {
        let bytes: &[u8] = b"1.0\n\xff\xfe\n";
        let mut r = CsvReader::new(Cursor::new(bytes), "bin.csv");
        let _ = r.next_record().unwrap().unwrap();
        let err = r.next_record().unwrap_err();
        assert!(matches!(err, IngestError::Io { line: 1, .. }), "{err:?}");
    }
}
