//! Chunked parallel parsing: byte ranges scanned in place on every
//! worker, stitched back in input order, with the serial readers as the
//! one place an error is worded.
//!
//! The byte stream is split into per-worker ranges whose boundaries are
//! **snapped forward past the next `\n`**, so no line ever straddles a
//! chunk (CRLF-safe: `\r` immediately precedes its `\n`, so a boundary
//! placed *after* a newline can never split a CRLF pair, nor a multi-byte
//! UTF-8 character, which never contains the byte `\n`).
//!
//! **Power CSV** — the hot path of every trace replay:
//!
//! 1. **Scan.** A worker validates its range as UTF-8 once (a range is
//!    whole lines, so an invalid line fails the file exactly as it fails
//!    the serial reader's `read_line`; pure ASCII validates at memory
//!    speed), then reads each line in one of two tiers. A **fused record**,
//!    `-?[0-9]+(\.[0-9]+)?(,[0-9]+)?` then `\r?\n` or the end of the text
//!    with at most 15 value and 18 label digits, is read in one pass that
//!    accumulates the digits `w` and the label: `w < 2^53` and `10^e` are
//!    exact `f64`s, so `w / 10^e` is rounded once, and its `f32` rounding
//!    is the decimal's unless it is an `f32` midpoint (every midpoint is
//!    an `f64`, so none lies strictly between the decimal and its nearest
//!    `f64`), which is declined. Any other line takes the **dialect**
//!    tier: [`super::csv`]'s rules and `PowerRow::extract` over a borrowed
//!    sub-slice, with `std` parsing every number. The scan keeps columns:
//!    the finite `f32` values, labels as runs (a day's readings share
//!    one), and a gap marker where a value is missing or non-finite —
//!    four bytes per record plus a few per label change. It keeps **no
//!    line numbers and builds no errors**: at the first line the serial
//!    reader would reject, it stops and marks the chunk incomplete.
//! 2. **Stitch.** Chunks replay in input order through the one stateful
//!    `PowerBuilder` the serial path uses, a run at a time: a run of finite
//!    readings slice-extends the day buffer, a gap goes through the
//!    builder's imputer. The builder refuses what `push` would reject
//!    (policy says reject, nothing to impute from, label disagrees with
//!    the open day's).
//! 3. **Failure.** An incomplete chunk or a refusal means the input does
//!    not parse. Errors are terminal, so the chunked path then runs the
//!    serial reader over the same bytes and returns *its* result: variant,
//!    message and 1-based line are the serial reader's by construction,
//!    and nothing on the success path pays for line bookkeeping (no
//!    newline-count pre-pass, no per-record line number).
//!
//! On success the corpus is **byte-identical to the serial reader's**,
//! whatever `HEC_THREADS` or the chunk size: a fused record reads as
//! `std` reads it (`tests/fused_number.rs` referees that bit for bit),
//! every other line goes through the same dialect functions and
//! extraction, and the builder is the same.
//!
//! **MHEALTH NDJSON** keeps its record reader per range (its records are
//! 18-channel objects; the line copy is not what it spends its time on)
//! and follows the same failure rule.

use std::io::Cursor;

use hec_tensor::parallel::parallel_map;

use crate::ingest::csv::{is_skipped, split_fields, strip_eol, CsvRecord, BOM};
use crate::ingest::ndjson::NdjsonReader;
use crate::ingest::schema::{
    MhealthBuilder, MhealthNdjsonSource, MhealthRow, PowerBuilder, PowerCsvSource, PowerRow,
};
use crate::mhealth::CHANNELS;
use crate::source::{IngestError, LabeledCorpus};

/// Splits `bytes` into contiguous ranges of roughly `chunk_bytes` each,
/// every boundary snapped forward to just after the next `\n` so no
/// record (or CRLF pair) straddles two ranges. The concatenation of the
/// ranges is exactly `0..bytes.len()`; the final range may lack a
/// trailing newline (a file's last line often does too). A
/// `chunk_bytes` of 0 reads as 1: a range per line.
pub(crate) fn chunk_ranges(bytes: &[u8], chunk_bytes: usize) -> Vec<(usize, usize)> {
    let chunk_bytes = chunk_bytes.max(1);
    let len = bytes.len();
    let mut ranges = Vec::new();
    let mut start = 0usize;
    while start < len {
        let mut end = (start + chunk_bytes).min(len);
        while end < len && bytes[end - 1] != b'\n' {
            end += 1;
        }
        ranges.push((start, end));
        start = end;
    }
    ranges
}

/// Picks a chunk size for `len` bytes across `threads` workers: one
/// chunk per worker, floored so tiny inputs stay in one chunk (spawning
/// a thread per handful of lines costs more than it saves).
pub(crate) fn default_chunk_bytes(len: usize, threads: usize) -> usize {
    const MIN_CHUNK: usize = 64 * 1024;
    len.div_ceil(threads.max(1)).max(MIN_CHUNK)
}

/// Consecutive records of a chunk that the builder takes in one call.
enum Run {
    /// `len` finite readings under one label: the next `len` entries of
    /// the chunk's `values`.
    Readings { len: usize, label: usize },
    /// One reading whose value is missing or non-finite — the imputer's.
    Gap { label: usize },
}

/// One chunk's scan of the power schema, in columns.
struct PowerChunk {
    /// The chunk's first record is header-shaped and was set aside. Only
    /// the stitch knows whether it is the *file's* first record (the one
    /// the serial reader skips): a range that follows nothing but comment
    /// lines contributes the file's first record without being chunk 0.
    header: bool,
    /// Every finite reading, in record order.
    values: Vec<f32>,
    runs: Vec<Run>,
    /// The scan reached the end of the range; otherwise it stopped at a
    /// line the serial reader rejects.
    complete: bool,
}

impl PowerChunk {
    fn push_reading(&mut self, value: f32, label: usize) {
        self.values.push(value);
        match self.runs.last_mut() {
            Some(Run::Readings { len, label: open }) if *open == label => *len += 1,
            _ => self.runs.push(Run::Readings { len: 1, label }),
        }
    }
}

/// `10^e` for every fraction length a fused record can have, each an exact
/// `f64`.
const POW10: [f64; 16] =
    [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15];

/// Reads the fused record at `at` (module docs, step 1): its value, its
/// label (0 when absent) and the offset past its line ending. `None`
/// declines the line to the dialect tier.
fn fused_record(bytes: &[u8], at: usize) -> Option<(f32, usize, usize)> {
    /// Appends the run of ASCII digits at `*i` to `acc`, returning how
    /// many there were (`acc` is meaningless past 19 of them).
    fn digits(bytes: &[u8], i: &mut usize, acc: &mut u64) -> usize {
        let from = *i;
        while let Some(&d @ b'0'..=b'9') = bytes.get(*i) {
            *acc = acc.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            *i += 1;
        }
        *i - from
    }
    let mut i = at;
    let negative = bytes.get(i) == Some(&b'-');
    i += usize::from(negative);
    let mut w = 0u64;
    let whole = digits(bytes, &mut i, &mut w);
    let mut e = 0;
    if bytes.get(i) == Some(&b'.') {
        i += 1;
        e = digits(bytes, &mut i, &mut w);
        if e == 0 {
            return None;
        }
    }
    if whole == 0 || whole + e > 15 {
        return None;
    }
    let mut label = 0u64;
    if bytes.get(i) == Some(&b',') {
        i += 1;
        if !(1..=18).contains(&digits(bytes, &mut i, &mut label)) {
            return None;
        }
    }
    let next = match &bytes[i..] {
        [] => i,
        [b'\n', ..] => i + 1,
        [b'\r', b'\n', ..] => i + 2,
        _ => return None,
    };
    let q = w as f64 / POW10[e];
    // The low 29 of the 52 fraction bits are what rounding to `f32` drops.
    if q.to_bits() & 0x1fff_ffff == 0x1000_0000 {
        return None;
    }
    let value = q as f32;
    Some((if negative { -value } else { value }, usize::try_from(label).ok()?, next))
}

/// Scans one newline-snapped range. `file_start`: the range begins the
/// file, so a BOM there is a byte-order mark and not data.
fn scan_power_chunk(range: &[u8], file_start: bool) -> PowerChunk {
    let mut chunk = PowerChunk {
        header: false,
        // Shortest record line is two bytes; typical ones run to a dozen.
        values: Vec::with_capacity(range.len() / 8),
        runs: Vec::new(),
        complete: false,
    };
    let Ok(text) = std::str::from_utf8(range) else { return chunk };
    let text = if file_start { text.strip_prefix(BOM).unwrap_or(text) } else { text };
    let bytes = text.as_bytes();
    let mut bounds = Vec::new();
    let mut first_record = true;
    let mut next = 0usize;
    while next < bytes.len() {
        let start = next;
        // A fused record is a reading, never a header.
        if let Some((value, label, end)) = fused_record(bytes, start) {
            next = end;
            first_record = false;
            chunk.push_reading(value, label);
            continue;
        }
        let newline = bytes[start..].iter().position(|&b| b == b'\n');
        next = newline.map_or(bytes.len(), |n| start + n + 1);
        let line = strip_eol(&text[start..next]);
        if is_skipped(line) {
            continue;
        }
        split_fields(line, &mut bounds);
        let record = CsvRecord::new(0, line, &bounds);
        if std::mem::take(&mut first_record) && record.looks_like_header() {
            chunk.header = true;
            continue;
        }
        // Bad arity, value or label: each fails the file, in an order only
        // the builder's state decides.
        let Ok(PowerRow { raw, label: Ok(label), .. }) = PowerRow::extract(&record) else {
            return chunk;
        };
        match raw {
            Some(value) if value.is_finite() => chunk.push_reading(value, label),
            _ => chunk.runs.push(Run::Gap { label }),
        }
    }
    chunk.complete = true;
    chunk
}

/// Replays scanned chunks through `builder` in input order; `None` as
/// soon as the input is known not to parse.
fn stitch_power(chunks: Vec<PowerChunk>, mut builder: PowerBuilder) -> Option<LabeledCorpus> {
    let mut seen_record = false;
    for chunk in chunks {
        // Header-shaped anywhere but at the file's first record is a
        // malformed reading.
        if chunk.header && seen_record {
            return None;
        }
        seen_record |= chunk.header || !chunk.runs.is_empty();
        let mut values = chunk.values.as_slice();
        for run in &chunk.runs {
            let taken = match *run {
                Run::Readings { len, label } => {
                    let (readings, later) = values.split_at(len);
                    values = later;
                    builder.extend_run(readings, label)
                }
                Run::Gap { label } => builder.fill_gap(label),
            };
            if !taken {
                return None;
            }
        }
        if !chunk.complete {
            return None;
        }
    }
    Some(builder.finish())
}

impl PowerCsvSource {
    /// Parses an in-memory byte stream with the chunked parallel path.
    /// Byte-identical to [`parse`](Self::parse) — same corpus on
    /// success, same first error (variant, message, global 1-based line
    /// number) on failure — for every `chunk_bytes` (0 reads as 1, see
    /// `chunk_ranges`) and thread count.
    pub fn parse_chunked(
        &self,
        bytes: &[u8],
        chunk_bytes: usize,
    ) -> Result<LabeledCorpus, IngestError> {
        let ranges = chunk_ranges(bytes, chunk_bytes);
        let chunks = parallel_map(&ranges, |_, &(start, end)| {
            scan_power_chunk(&bytes[start..end], start == 0)
        });
        match stitch_power(chunks, PowerBuilder::new(self.policy, self.samples_per_day)) {
            Some(corpus) => Ok(corpus),
            None => self.parse(Cursor::new(bytes)),
        }
    }
}

/// One chunk's extraction output for the MHEALTH schema: rows plus a
/// flat channel buffer (`rows.len() × CHANNELS`), avoiding a `Vec` per
/// record. No header handling — the NDJSON schema has none.
struct MhealthChunk {
    rows: Vec<MhealthRow>,
    samples: Vec<f32>,
}

impl MhealthNdjsonSource {
    /// Parses an in-memory byte stream with the chunked parallel path —
    /// byte-identical to [`parse`](Self::parse), like
    /// [`PowerCsvSource::parse_chunked`].
    pub fn parse_chunked(
        &self,
        bytes: &[u8],
        chunk_bytes: usize,
    ) -> Result<LabeledCorpus, IngestError> {
        let name = crate::ingest::schema::trace_name(&self.path);
        let ranges = chunk_ranges(bytes, chunk_bytes);
        // `None`: the range holds a record the serial reader rejects. Line
        // numbers are range-relative and never surface.
        let chunks: Vec<Option<MhealthChunk>> = parallel_map(&ranges, |_, &(start, end)| {
            let range = &bytes[start..end];
            // The reader strips a BOM off the first line it sees; past the
            // file's first line a BOM is data, and malformed data at that.
            if start > 0 && range.starts_with(BOM.as_bytes()) {
                return None;
            }
            let mut reader = NdjsonReader::new(Cursor::new(range), name.clone());
            let mut chunk = MhealthChunk { rows: Vec::new(), samples: Vec::new() };
            while let Some(rec) = reader.next_record().ok()? {
                let (row, ch) = MhealthRow::extract(&rec).ok()?;
                chunk.rows.push(row);
                chunk.samples.extend_from_slice(ch);
            }
            Some(chunk)
        });

        let mut builder = MhealthBuilder::new(self.policy, self.window, self.stride);
        let stitched = chunks.into_iter().try_for_each(|chunk| {
            let chunk = chunk?;
            chunk
                .rows
                .into_iter()
                .zip(chunk.samples.chunks_exact(CHANNELS))
                .try_for_each(|(row, ch)| builder.push(row, ch).ok())
        });
        match stitched {
            Some(()) => Ok(builder.finish()),
            None => self.parse(Cursor::new(bytes)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::csv::CsvReader;
    use crate::ingest::MissingValuePolicy;

    fn power(spd: usize, policy: MissingValuePolicy) -> PowerCsvSource {
        PowerCsvSource::new("power.csv", spd, policy)
    }

    fn mhealth(window: usize, stride: usize) -> MhealthNdjsonSource {
        MhealthNdjsonSource::new("trace.ndjson", window, stride, MissingValuePolicy::Reject)
    }

    /// Asserts chunked == serial (corpus or error) at every chunk size, 0
    /// included.
    fn assert_power_matches(src: &PowerCsvSource, text: impl AsRef<[u8]>) {
        let text = text.as_ref();
        let serial = src.parse(Cursor::new(text));
        for chunk_bytes in 0..=text.len().max(1) {
            let chunked = src.parse_chunked(text, chunk_bytes);
            match (&serial, &chunked) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.classes, b.classes, "chunk_bytes={chunk_bytes}");
                    assert_eq!(a.len(), b.len(), "chunk_bytes={chunk_bytes}");
                    for (wa, wb) in a.windows.iter().zip(&b.windows) {
                        assert_eq!(wa.data.as_slice(), wb.data.as_slice());
                        assert_eq!(wa.anomalous, wb.anomalous);
                    }
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a.line(), b.line(), "chunk_bytes={chunk_bytes}");
                    assert_eq!(a.to_string(), b.to_string(), "chunk_bytes={chunk_bytes}");
                }
                _ => panic!("chunk_bytes={chunk_bytes}: serial {serial:?} vs chunked {chunked:?}"),
            }
        }
    }

    #[test]
    fn ranges_cover_input_and_snap_to_newlines() {
        let text = b"aa\nbbbb\ncc\nd";
        for chunk in 1..=text.len() + 2 {
            let ranges = chunk_ranges(text, chunk);
            assert_eq!(ranges.first().map(|r| r.0), Some(0));
            assert_eq!(ranges.last().map(|r| r.1), Some(text.len()));
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].1, pair[1].0, "ranges must tile the input");
                assert_eq!(text[pair[0].1 - 1], b'\n', "boundary must follow a newline");
            }
        }
        assert!(chunk_ranges(b"", 8).is_empty());
        assert_eq!(chunk_ranges(text, 0), chunk_ranges(text, 1));
    }

    #[test]
    fn fused_records_read_as_std_reads_them() {
        for (line, value, label) in [
            ("0.83452135,0\n", "0.83452135", 0),
            ("-12.5,3\r\n", "-12.5", 3),
            ("-0", "-0", 0),
            ("007.250,000000000000000012", "7.25", 12),
            ("123456789012345\n", "123456789012345", 0),
            ("0.00000000000001,1", "0.00000000000001", 1),
        ] {
            let (v, l, next) = fused_record(line.as_bytes(), 0).expect(line);
            assert_eq!(v.to_bits(), value.parse::<f32>().unwrap().to_bits(), "{line:?}");
            assert_eq!((l, next), (label, line.len()), "{line:?}");
        }
        // Two records back to back: the second starts where the first ends.
        assert_eq!(fused_record(b"1,0\n2.5,1\n", 4), Some((2.5, 1, 10)));
        // Blank, signs, bare points, exponents, words, padding, empty or
        // extra fields, stray `\r`s, non-ASCII, too many digits, midpoints.
        let declined = "|\n|+1|.5|5.|1e5|inf|nan|?|-| 1|1 |1,|0.35,|1,0\r|1,0\r\r\n|1,0,0\
                        |1.2.3|# 1|1\u{a0}|1234567890123456|0.000000000000001\
                        |1,0000000000000000000|16777217|-16777219,0";
        for line in declined.split('|') {
            assert_eq!(fused_record(line.as_bytes(), 0), None, "{line:?}");
        }
    }

    #[test]
    fn crlf_never_splits_across_a_boundary() {
        let text = b"1,0\r\n2,0\r\n3,1\r\n";
        for chunk in 1..=text.len() {
            for &(start, end) in &chunk_ranges(text, chunk) {
                let range = &text[start..end];
                assert!(!range.starts_with(b"\n"), "LF split from its CR at {start}");
                assert!(!range.ends_with(b"\r"), "CR split from its LF at {end}");
            }
        }
    }

    #[test]
    fn power_chunked_matches_serial_on_clean_input() {
        let text = "# trace\ndemand,label\n1,0\n2,0\n3,1\n4,1\n5,0\n6,0\n7,0\n";
        assert_power_matches(&power(2, MissingValuePolicy::Reject), text);
    }

    #[test]
    fn power_chunked_matches_serial_on_errors() {
        // Malformed number mid-file: same line, same message.
        assert_power_matches(&power(2, MissingValuePolicy::Reject), "1,0\n2,0\nbogus,0\n4,0\n");
        // Missing value under both policies, including the deferred-label
        // trap: `,bogus` must report the missing value, not the label.
        assert_power_matches(&power(2, MissingValuePolicy::Reject), "1,0\n,bogus\n");
        assert_power_matches(&power(2, MissingValuePolicy::ImputePrevious), ",0\n2,0\n");
        // Day-label disagreement (stateful error raised at stitch time).
        assert_power_matches(&power(2, MissingValuePolicy::Reject), "1,0\n2,2\n");
        // Arity error.
        assert_power_matches(&power(2, MissingValuePolicy::Reject), "1,0\n2,0,9\n");
    }

    #[test]
    fn power_chunked_handles_headers_and_comments() {
        // Header not in chunk 0's range once chunks shrink below the
        // comment block: the stitch phase must still drop exactly one
        // file-first header record.
        let text = "# a\n# b\n# c\nvalue,label\n1,0\n2,0\n";
        assert_power_matches(&power(2, MissingValuePolicy::Reject), text);
        // A header-shaped line mid-file is data and must error like serial.
        let text = "1,0\n2,0\nvalue,label\n3,0\n";
        assert_power_matches(&power(2, MissingValuePolicy::Reject), text);
    }

    #[test]
    fn power_chunked_matches_serial_with_crlf_and_impute() {
        let text = "demand\r\n1\r\n\r\n# gap\r\n?\r\n3\r\n4\r\n";
        assert_power_matches(&power(2, MissingValuePolicy::ImputePrevious), text);
        assert_power_matches(&power(2, MissingValuePolicy::Reject), text);
    }

    #[test]
    fn power_scanner_takes_what_a_string_reader_gets_for_free() {
        for policy in [MissingValuePolicy::Reject, MissingValuePolicy::ImputePrevious] {
            let src = power(2, policy);
            // A byte-order mark: a mark on the first line (header or data)...
            assert_power_matches(&src, "\u{feff}demand,label\n1,0\n2,0\n");
            assert_power_matches(&src, "\u{feff}1,0\n2,0\n3,1\n4,1\n");
            // ...and data anywhere else, also where a chunk begins with it.
            assert_power_matches(&src, "1,0\n2,0\n\u{feff}3,0\n4,0\n");
            assert_power_matches(&src, "# c\n\u{feff}# not a comment\n1,0\n");
            // Unicode whitespace before `#` and on blank lines is skipped;
            // inside a field it is not trimmed.
            assert_power_matches(
                &src,
                "\u{a0}# c\n1,0\n\u{2003}\n\x0b\n2,0\n\u{3000}\t#\n3,0\n4,0\n",
            );
            assert_power_matches(&src, "1,0\n2\u{a0},0\n");
            assert_power_matches(&src, "1,0\n\u{2003}2,0\n");
            // ASCII padding around both fields, tabs included.
            assert_power_matches(&src, " 1 , 0 \n\t2\t,\t0\t\r\n  3,1\n4 ,1\n");
            // `\r\r\n` is one ending; a `\r` inside a line is data.
            assert_power_matches(&src, "1,0\r\r\n2,0\r\r\r\n3,1\n4,1\r\r\n");
            assert_power_matches(&src, "1,0\n2,0\r3,0\n");
            // A last line without newline: a record, a comment, a `\r`.
            assert_power_matches(&src, "1,0\n2,0\n3,1\n4,1");
            assert_power_matches(&src, "1,0\n2,0\n# end");
            assert_power_matches(&src, "1,0\n2,0\r");
            // Multi-byte characters under every chunk boundary.
            assert_power_matches(&src, "# température 温度 ∆\n1,0\n# —\n2,0\n");
            // Invalid UTF-8: in a comment, in a record, on the last line,
            // before and after an error of another kind.
            assert_power_matches(&src, b"1,0\n# \xff\xfe\n2,0\n");
            assert_power_matches(&src, b"1,0\n2,0\n\xc3\n3,0\n");
            assert_power_matches(&src, b"1,0\n2,0\n3,0\n\xe6\xb8");
            assert_power_matches(&src, b"1,0\nbogus,0\n\xff,0\n");
            assert_power_matches(&src, b"1,0\n\xff,0\nbogus,0\n");
            assert_power_matches(&src, b"\xff\n");
        }
    }

    #[test]
    fn serial_reader_runs_only_when_the_input_fails() {
        // The serial re-read words errors; well-formed input, however
        // oddly dressed, must come out of scan + stitch alone.
        let stitches = |policy, text: &[u8], chunk_bytes| {
            let chunks = chunk_ranges(text, chunk_bytes)
                .into_iter()
                .map(|(start, end)| scan_power_chunk(&text[start..end], start == 0))
                .collect();
            stitch_power(chunks, PowerBuilder::new(policy, 2)).is_some()
        };
        let dressed =
            "\u{feff}# c\n\u{a0}# c\nv,l\n 1\t, 0 \r\r\n\u{2003}\n2,\n# 温度\n3,1\r\n?,1\n5\n6,0";
        let plain = "1,0\n2,0\n3,1\n4,1\n";
        for chunk_bytes in 1..=dressed.len() {
            assert!(stitches(MissingValuePolicy::ImputePrevious, dressed.as_bytes(), chunk_bytes));
            assert!(!stitches(MissingValuePolicy::Reject, dressed.as_bytes(), chunk_bytes));
            assert!(stitches(MissingValuePolicy::Reject, plain.as_bytes(), chunk_bytes));
        }
        for broken in ["1,0\n2,1\n", "1,0\nx,0\n", "1,0\n2,0,0\n", "1,0\n2,-1\n", "1,0\nv,l\n"] {
            for chunk_bytes in 1..=broken.len() {
                assert!(!stitches(
                    MissingValuePolicy::ImputePrevious,
                    broken.as_bytes(),
                    chunk_bytes
                ));
            }
        }
    }

    #[test]
    fn power_runs_and_gaps_cross_chunk_boundaries() {
        // Day length 3 against runs of other lengths: days close mid-run,
        // runs end mid-day, and the imputer's memory crosses chunks.
        let text = "1,0\n2,0\n3,0\n4,2\n5,2\n6,2\n7,0\n?,0\n9,0\n10,0\n,0\nnan,0\n13,1\n";
        for policy in [MissingValuePolicy::Reject, MissingValuePolicy::ImputePrevious] {
            assert_power_matches(&power(3, policy), text);
            assert_power_matches(&power(2, policy), text);
        }
        // A gap with nothing before it, a gap whose label breaks the day.
        assert_power_matches(&power(2, MissingValuePolicy::ImputePrevious), "?,0\n1,0\n");
        assert_power_matches(&power(2, MissingValuePolicy::ImputePrevious), "1,0\n?,1\n");
    }

    #[test]
    fn power_failure_lines_are_the_readers_line_numbers() {
        // The chunked path keeps no line numbers; whatever it reports must
        // still be the line `CsvReader` counts, runs of comment and blank
        // lines included. Break each record in turn and compare.
        let lines =
            ["# a", "", "v,l", "  ", "# b", "# c", "1,0", "", "", "2,0", "# d", "3,0", "4,0", ""];
        let src = power(2, MissingValuePolicy::Reject);
        for (broken, &line) in lines.iter().enumerate() {
            if !line.starts_with(|c: char| c.is_ascii_digit()) {
                continue;
            }
            let mut text = String::new();
            for (i, l) in lines.iter().enumerate() {
                text.push_str(if i == broken { "oops,0" } else { l });
                text.push_str("\r\n");
            }
            let mut reader = CsvReader::new(Cursor::new(&text), "power.csv");
            let expected = loop {
                let rec = reader.next_record().unwrap().expect("the broken record is in the text");
                if rec.field(0) == "oops" {
                    break rec.line_number();
                }
            };
            assert_eq!(expected, broken as u64 + 1);
            for chunk_bytes in 1..=text.len() {
                let err = src.parse_chunked(text.as_bytes(), chunk_bytes).unwrap_err();
                assert_eq!(err.line(), expected, "chunk_bytes={chunk_bytes}: {err}");
                assert!(matches!(err, IngestError::Parse { .. }), "{err:?}");
            }
        }
    }

    #[test]
    fn mhealth_mid_file_bom_fails_like_serial() {
        let line = "{\"ch\": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18], \
                    \"activity\": 3}\n";
        let text = format!("{line}\u{feff}{line}");
        let src = mhealth(1, 1);
        let serial = src.parse(Cursor::new(&text)).unwrap_err();
        assert_eq!(serial.line(), 2);
        for chunk_bytes in [1, line.len(), text.len()] {
            let chunked = src.parse_chunked(text.as_bytes(), chunk_bytes).unwrap_err();
            assert_eq!(serial.line(), chunked.line());
            assert_eq!(serial.to_string(), chunked.to_string());
        }
        // At the file start it is a mark, chunked or not.
        let text = format!("\u{feff}{line}{line}");
        assert_eq!(src.parse_chunked(text.as_bytes(), 1).unwrap().len(), 2);
    }

    #[test]
    fn mhealth_chunked_matches_serial() {
        let line = |activity: usize, v: f32| {
            let ch: Vec<String> = (0..CHANNELS).map(|c| format!("{}", v + c as f32)).collect();
            format!("{{\"ch\": [{}], \"activity\": {activity}, \"subject\": 0}}", ch.join(", "))
        };
        let mut text = String::new();
        for i in 0..6 {
            text.push_str(&line(3, i as f32));
            text.push('\n');
        }
        for i in 0..4 {
            text.push_str(&line(10, 100.0 + i as f32));
            text.push('\n');
        }
        let src = mhealth(4, 2);
        let serial = src.parse(Cursor::new(&text)).unwrap();
        for chunk_bytes in [0, 1, 7, 64, text.len(), text.len() * 2] {
            let chunked = src.parse_chunked(text.as_bytes(), chunk_bytes).unwrap();
            assert_eq!(serial.classes, chunked.classes, "chunk_bytes={chunk_bytes}");
            for (a, b) in serial.windows.iter().zip(&chunked.windows) {
                assert_eq!(a.data.as_slice(), b.data.as_slice());
            }
        }
    }

    #[test]
    fn mhealth_chunked_matches_serial_on_errors() {
        let text = "{\"ch\": [1, 2], \"activity\": 0}\n";
        let src = mhealth(2, 1);
        let serial = src.parse(Cursor::new(text)).unwrap_err();
        for chunk_bytes in [1, 8, text.len()] {
            let chunked = src.parse_chunked(text.as_bytes(), chunk_bytes).unwrap_err();
            assert_eq!(serial.line(), chunked.line());
            assert_eq!(serial.to_string(), chunked.to_string());
        }
    }

    #[test]
    fn chunked_respects_thread_count_and_stays_identical() {
        let mut text = String::from("demand,label\n");
        for i in 0..97 {
            text.push_str(&format!("{}.5,{}\n", i, (i / 4) % 2));
        }
        let src = power(4, MissingValuePolicy::Reject);
        let serial = src.parse(Cursor::new(&text)).unwrap();
        for threads in [1, 2, 4, 7] {
            let chunked = hec_tensor::parallel::with_thread_count(threads, || {
                src.parse_chunked(text.as_bytes(), text.len().div_ceil(threads)).unwrap()
            });
            assert_eq!(serial.classes, chunked.classes, "threads={threads}");
            for (a, b) in serial.windows.iter().zip(&chunked.windows) {
                assert_eq!(a.data.as_slice(), b.data.as_slice());
            }
        }
    }
}
