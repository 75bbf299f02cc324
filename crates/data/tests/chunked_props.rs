//! Property tests for the chunked parallel parsers (feature
//! `real-data`): over randomly generated CSV/NDJSON inputs — CRLF line
//! endings, comments, blank lines, headers, missing-value markers,
//! malformed fields, day-label disagreements, arity errors, and what a
//! byte scanner can get wrong where a `String` reader gets it for free
//! (byte-order marks, Unicode whitespace, padded fields, `\r\r\n`, a
//! last line without newline, multi-byte characters at chunk boundaries,
//! invalid UTF-8) — the chunked path must match the serial readers
//! **exactly**, for every chunk size from one byte to past the whole file
//! and at several thread counts:
//!
//! * on success: same windows (bitwise sample values), same labels, same
//!   anomaly classes;
//! * on failure: same error variant rendering, same message, same
//!   1-based global line number (the first error in input order).
//!
//! Chunk boundaries land mid-record, mid-CRLF, mid-comment — everywhere
//! — because every chunk size in the sweep is tried on every generated
//! input. Shortest-form `f32` records reach the scanner's fused number
//! path with up to 9 significant digits, and every shape it must decline
//! (exponents, signs, bare points, `inf`, long mantissas and labels, a
//! trailing comma or `\r`) is generated too. The flat standardiser rides
//! along: it must equal the row-wise loop it replaced, bit for bit.
#![cfg(feature = "real-data")]

use proptest::prelude::*;

use hec_data::ingest::{MhealthNdjsonSource, MissingValuePolicy, PowerCsvSource};
use hec_data::{LabeledCorpus, NonFiniteError, Standardizer};
use hec_tensor::Matrix;

const SPD: usize = 4;

/// Renders one pseudo-random power-CSV line from a (kind, value) token.
/// Most kinds are well-formed; a few inject the error paths the serial
/// reader defines (missing values, malformed numbers, bad labels, arity
/// slips) so error equality is exercised as often as success equality.
fn power_line(kind: u8, v: u32, out: &mut String) {
    let x = (v % 997) as f32 / 100.0;
    let label = v % 4;
    match kind {
        0 => out.push_str("# a comment line\n"),
        1 => out.push('\n'),
        2 => out.push_str("   \n"),
        3 => {
            out.push_str(&format!("{x:.3},{label}\r\n"));
        }
        4 => {
            // Unlabelled record (label defaults to 0).
            out.push_str(&format!("{x:.3}\n"));
        }
        5 => {
            // Empty label field (also defaults to 0).
            out.push_str(&format!("{x:.3},\n"));
        }
        6 if v.is_multiple_of(5) => {
            // Missing value (empty field) — policy-dependent.
            out.push_str(&format!(",{label}\n"));
        }
        7 if v.is_multiple_of(7) => {
            // Non-finite value — treated as missing.
            out.push_str(&format!("nan,{label}\n"));
        }
        8 if v.is_multiple_of(11) => {
            // Malformed number: Parse error at this line.
            out.push_str("12..5,0\n");
        }
        9 if v.is_multiple_of(13) => {
            // Malformed label AFTER a missing value marker would have
            // fired — exercises the deferred-label stitch ordering.
            out.push_str(&format!("{x:.3},bogus\n"));
        }
        10 if v.is_multiple_of(17) => {
            // Arity slip: three fields.
            out.push_str(&format!("{x:.3},{label},9\n"));
        }
        // Leading whitespace is skipped in the Unicode sense before the
        // blank/comment test...
        16 => out.push_str("\u{a0}# a comment behind a no-break space\n"),
        17 => out.push_str("\u{2003}\x0b \n"),
        // ...but fields are trimmed of ASCII whitespace only.
        18 => out.push_str(&format!(" \t{x:.3} \t,\t {label}\t\n")),
        19 if v.is_multiple_of(19) => out.push_str(&format!("{x:.3}\u{a0},{label}\n")),
        // One line ending may hold several carriage returns.
        20 => out.push_str(&format!("{x:.3},{label}\r\r\n")),
        // Multi-byte characters: every chunk size in the sweep aims a
        // boundary inside one of them.
        21 => out.push_str("# température 温度 ∆ — mesurée\n"),
        // A byte-order mark past the first line is data.
        22 if v.is_multiple_of(23) => out.push_str(&format!("\u{feff}{x:.3},{label}\n")),
        // Stands for a line of invalid UTF-8; `power_bytes` swaps the
        // bytes in.
        23 if v.is_multiple_of(29) => out.push_str(&format!("{INVALID_UTF8_MARK},{label}\n")),
        24 | 25 => number_record(v, label, out),
        // Values `std` reads as non-finite or not at all, and a 20-digit
        // label: all declined by the fused record.
        26 if v.is_multiple_of(7) => {
            out.push_str(&format!("{},{label}\n", ["-", "inf", "+"][v as usize % 3]));
        }
        27 if v.is_multiple_of(37) => out.push_str(&format!("{x:.3},1{v:019}\n")),
        _ => {
            out.push_str(&format!("{x:.3},{label}\n"));
        }
    }
}

/// Finite numbers `std` reads that the fused record must decline: an
/// exponent, a sign, a bare point, more than 15 digits.
const DECLINED: [&str; 10] = [
    "1e5",
    "+1",
    ".5",
    "5.",
    "1234567890123456",
    "0.1234567890123456",
    "12345678.901234567",
    "00000000000000001",
    "-0.000000000000001",
    "1.5e-3",
];

/// One record whose value `std` reads as finite, in a form the fused
/// record reads or declines: a shortest-form `f32` (up to 9 significant
/// digits, huge and tiny magnitudes), a `{:.4}` one, or a [`DECLINED`]
/// spelling; labelled, padded with zeros, unlabelled or with an empty
/// label (the last two only for label 0), behind `\n`, `\r\n` or `\r\r\n`.
fn number_record(v: u32, label: u32, out: &mut String) {
    let x = f32::from_bits(v.wrapping_mul(0x9e37_79b1));
    let x = if x.is_finite() { x } else { v as f32 };
    let value = match v % 4 {
        0 | 1 => format!("{x}"),
        2 => format!("{x:.4}"),
        _ => DECLINED[(v / 4) as usize % DECLINED.len()].to_owned(),
    };
    let record = match (v / 7) % 5 {
        0 if label == 0 => format!("{value}\n"),
        1 if label == 0 => format!("{value},\n"),
        2 => format!("{value},00{label}\r\r\n"),
        3 => format!("{value},{label}\r\n"),
        _ => format!("{value},{label}\n"),
    };
    out.push_str(&record);
}

/// Placeholder a generated text carries where `power_bytes` puts two bytes
/// that are not UTF-8 (a `String` cannot hold them).
const INVALID_UTF8_MARK: &str = "<invalid-utf8>";

/// A generated power CSV as the bytes under test: optionally behind a
/// byte-order mark, optionally without its final newline, and with every
/// [`INVALID_UTF8_MARK`] replaced by invalid bytes.
fn power_bytes(header: bool, bom: bool, cut_final_newline: bool, tokens: &[(u8, u32)]) -> Vec<u8> {
    let mut text = String::new();
    if bom {
        text.push('\u{feff}');
    }
    if header {
        text.push_str("demand,label\n");
    }
    for &(kind, v) in tokens {
        power_line(kind, v, &mut text);
    }
    if cut_final_newline && text.ends_with('\n') {
        text.pop();
    }
    let mut bytes = Vec::with_capacity(text.len());
    let mut rest = text.as_str();
    while let Some(at) = rest.find(INVALID_UTF8_MARK) {
        bytes.extend_from_slice(&rest.as_bytes()[..at]);
        bytes.extend_from_slice(b"\xff\xfe");
        rest = &rest[at + INVALID_UTF8_MARK.len()..];
    }
    bytes.extend_from_slice(rest.as_bytes());
    bytes
}

/// Renders one pseudo-random MHEALTH NDJSON line. 18 channels; error
/// kinds inject nulls, arity slips and invalid activities.
fn mhealth_line(kind: u8, v: u32, out: &mut String) {
    let subject = v % 2;
    let activity = v % 5;
    let base = (v % 89) as f32 / 10.0;
    match kind % 12 {
        0 => out.push_str("# a comment line\n"),
        1 => out.push('\n'),
        2 if v.is_multiple_of(5) => {
            // One null sample — policy-dependent missing value.
            let mut ch: Vec<String> = (0..18).map(|c| format!("{:.2}", base + c as f32)).collect();
            ch[(v % 18) as usize] = "null".into();
            out.push_str(&format!(
                "{{\"subject\": {subject}, \"activity\": {activity}, \"ch\": [{}]}}\n",
                ch.join(", ")
            ));
        }
        3 if v.is_multiple_of(7) => {
            // Arity slip: 17 channels.
            let ch: Vec<String> = (0..17).map(|c| format!("{:.2}", base + c as f32)).collect();
            out.push_str(&format!(
                "{{\"subject\": {subject}, \"activity\": {activity}, \"ch\": [{}]}}\n",
                ch.join(", ")
            ));
        }
        4 if v.is_multiple_of(11) => {
            // Invalid activity id.
            let ch: Vec<String> = (0..18).map(|c| format!("{:.2}", base + c as f32)).collect();
            out.push_str(&format!(
                "{{\"subject\": {subject}, \"activity\": 99, \"ch\": [{}]}}\n",
                ch.join(", ")
            ));
        }
        5 if v.is_multiple_of(13) => {
            // Truncated object: reader-level parse error.
            out.push_str(&format!("{{\"subject\": {subject}, \"activity\": {activity}\n"));
        }
        _ => {
            let ch: Vec<String> = (0..18).map(|c| format!("{:.2}", base + c as f32)).collect();
            let crlf = if v.is_multiple_of(3) { "\r\n" } else { "\n" };
            out.push_str(&format!(
                "{{\"subject\": {subject}, \"activity\": {activity}, \"ch\": [{}]}}{crlf}",
                ch.join(", ")
            ));
        }
    }
}

/// The chunk-size sweep for an input of `len` bytes: every boundary
/// regime from one-byte chunks (maximal stitching) to a single chunk
/// covering the file (serial execution of the chunked code path).
fn chunk_sizes(len: usize) -> Vec<usize> {
    let mut sizes = vec![1, 2, 3, 5, 7, 13];
    sizes.extend([len / 3, len / 2, len.saturating_sub(1), len, len + 7]);
    sizes.retain(|&s| s >= 1);
    sizes.dedup();
    sizes
}

fn assert_corpora_eq(serial: &LabeledCorpus, chunked: &LabeledCorpus, ctx: &str) {
    assert_eq!(serial.len(), chunked.len(), "{ctx}: window count");
    assert_eq!(serial.classes, chunked.classes, "{ctx}: classes");
    for (i, (a, b)) in serial.windows.iter().zip(chunked.windows.iter()).enumerate() {
        assert_eq!(a.anomalous, b.anomalous, "{ctx}: window {i} label");
        assert_eq!(a.data.as_slice(), b.data.as_slice(), "{ctx}: window {i} samples");
    }
}

/// Serial vs chunked over every chunk size, success or failure.
fn assert_power_equivalence(text: &[u8], policy: MissingValuePolicy) {
    let source = PowerCsvSource::new("unused.csv", SPD, policy);
    let serial = source.parse(std::io::Cursor::new(text));
    for chunk in chunk_sizes(text.len()) {
        let chunked = source.parse_chunked(text, chunk);
        let ctx = format!("power[{policy}] chunk={chunk}");
        match (&serial, &chunked) {
            (Ok(s), Ok(c)) => assert_corpora_eq(s, c, &ctx),
            (Err(s), Err(c)) => {
                assert_eq!(s.line(), c.line(), "{ctx}: error line");
                assert_eq!(s.to_string(), c.to_string(), "{ctx}: error message");
            }
            (s, c) => panic!("{ctx}: serial {s:?} vs chunked {c:?}"),
        }
    }
}

fn assert_mhealth_equivalence(text: &str, policy: MissingValuePolicy) {
    let source = MhealthNdjsonSource::new("unused.ndjson", 3, 2, policy);
    let serial = source.parse(std::io::Cursor::new(text.as_bytes()));
    for chunk in chunk_sizes(text.len()) {
        let chunked = source.parse_chunked(text.as_bytes(), chunk);
        let ctx = format!("mhealth[{policy}] chunk={chunk}");
        match (&serial, &chunked) {
            (Ok(s), Ok(c)) => assert_corpora_eq(s, c, &ctx),
            (Err(s), Err(c)) => {
                assert_eq!(s.line(), c.line(), "{ctx}: error line");
                assert_eq!(s.to_string(), c.to_string(), "{ctx}: error message");
            }
            (s, c) => panic!("{ctx}: serial {s:?} vs chunked {c:?}"),
        }
    }
}

/// Every shape the fused record declines, in the middle of a file and as
/// its last line, against the serial reader.
#[test]
fn declined_shapes_read_as_the_serial_reader_reads_them() {
    let shapes =
        DECLINED.iter().chain(&["-", "inf", "nan", "?", ""]).map(|v| format!("{v},0")).chain(
            ["0.35", "0.35,", "1,0\r", "1,99999999999999999999", "1,0\r\r", "1\u{a0},0", "1,0,0"]
                .map(String::from),
        );
    for shape in shapes {
        for text in [format!("1,0\n{shape}\n2,0\n3,0\n"), format!("1,0\n2,0\n3,0\n{shape}")] {
            for policy in [MissingValuePolicy::Reject, MissingValuePolicy::ImputePrevious] {
                assert_power_equivalence(text.as_bytes(), policy);
            }
        }
    }
}

/// The flat standardiser against the row-wise loop it replaced.
fn row_wise_transform(s: &Standardizer, data: &Matrix) -> Result<Matrix, NonFiniteError> {
    for (r, row) in data.iter_rows().enumerate() {
        if let Some(c) = row.iter().position(|x| !x.is_finite()) {
            return Err(NonFiniteError { row: r, col: c });
        }
    }
    let mut out = data.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        for ((x, &m), &sd) in row.iter_mut().zip(s.mean()).zip(s.std()) {
            *x = (*x - m) / sd;
        }
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Power CSV that parses — one label per day (or 0 throughout, where
    /// a reading gained or lost cannot hide behind a label the builder
    /// refuses), blank and comment lines between, every value finite — so
    /// the readings themselves, not an error, are compared bit for bit, in
    /// every form [`number_record`] writes, with and without a final
    /// newline.
    #[test]
    fn power_readings_equal_serial(
        tokens in proptest::collection::vec((0u8..8, 0u32..100_000), 0..80),
        labels in 1u32..4,
        cut_final_newline in 0u8..2,
    ) {
        let mut text = String::new();
        let mut records = 0;
        for &(kind, v) in &tokens {
            match kind {
                0 => text.push('\n'),
                1 => text.push_str("# c\n"),
                _ => {
                    number_record(v, (records / SPD as u32) % labels, &mut text);
                    records += 1;
                }
            }
        }
        if cut_final_newline == 1 && text.ends_with('\n') {
            text.pop();
        }
        let source = PowerCsvSource::new("unused.csv", SPD, MissingValuePolicy::Reject);
        prop_assert!(source.parse(std::io::Cursor::new(&text)).is_ok(), "{text:?}");
        assert_power_equivalence(text.as_bytes(), MissingValuePolicy::Reject);
    }

    /// `Standardizer::try_transform` equals the row-wise loop bit for bit
    /// at 1, 3 and 18 channels, and reports the same first non-finite
    /// position when `poison` plants one.
    #[test]
    fn standardizer_matches_the_row_wise_loop(
        seed in 0u32..1_000_000,
        rows in 1usize..40,
        poison in proptest::collection::vec(0usize..10_000, 0..3),
    ) {
        for channels in [1, 3, 18] {
            let mut state = seed;
            let mut sample = || {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 8) as f32 / (1 << 20) as f32 - 8.0
            };
            let fit = Matrix::from_vec(rows, channels, (0..rows * channels).map(|_| sample()).collect());
            let standardizer = Standardizer::fit(&fit);
            let mut data = (0..rows * channels).map(|_| 3.0 * sample()).collect::<Vec<_>>();
            for (&at, bad) in poison.iter().zip([f32::NAN, f32::INFINITY, f32::NEG_INFINITY]) {
                let n = data.len();
                data[at % n] = bad;
            }
            let data = Matrix::from_vec(rows, channels, data);
            let flat = standardizer.try_transform(&data);
            let row_wise = row_wise_transform(&standardizer, &data);
            match (&flat, &row_wise) {
                (Ok(a), Ok(b)) => prop_assert!(
                    a.as_slice().iter().map(|x| x.to_bits()).eq(b.as_slice().iter().map(|x| x.to_bits()))
                ),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                _ => panic!("channels={channels}: {flat:?} vs {row_wise:?}"),
            }
        }
    }

    /// Power CSV: chunked == serial on arbitrary record mixes, with and
    /// without a leading header, a byte-order mark and a final newline,
    /// under both missing-value policies.
    #[test]
    fn power_chunked_equals_serial(
        tokens in proptest::collection::vec((0u8..32, 0u32..100_000), 0..80),
        header in 0u8..2,
        bom in 0u8..2,
        cut_final_newline in 0u8..2,
    ) {
        let text = power_bytes(header == 1, bom == 1, cut_final_newline == 1, &tokens);
        assert_power_equivalence(&text, MissingValuePolicy::Reject);
        assert_power_equivalence(&text, MissingValuePolicy::ImputePrevious);
    }

    /// MHEALTH NDJSON: chunked == serial on arbitrary record mixes
    /// (session-key changes included — subjects and activities vary per
    /// record) under both missing-value policies.
    #[test]
    fn mhealth_chunked_equals_serial(
        tokens in proptest::collection::vec((0u8..32, 0u32..100_000), 0..48),
    ) {
        let mut text = String::new();
        for &(kind, v) in &tokens {
            mhealth_line(kind, v, &mut text);
        }
        assert_mhealth_equivalence(&text, MissingValuePolicy::Reject);
        assert_mhealth_equivalence(&text, MissingValuePolicy::ImputePrevious);
    }

    /// Thread count must not matter either: the same input parsed
    /// chunked at 1, 2 and 5 workers is bitwise identical.
    #[test]
    fn power_chunked_is_thread_invariant(
        tokens in proptest::collection::vec((0u8..32, 0u32..100_000), 0..60),
    ) {
        let text = power_bytes(false, false, false, &tokens);
        let source = PowerCsvSource::new("unused.csv", SPD, MissingValuePolicy::ImputePrevious);
        let chunk = (text.len() / 4).max(1);
        let base = hec_tensor::parallel::with_thread_count(1, || {
            source.parse_chunked(&text, chunk)
        });
        for threads in [2, 5] {
            let run = hec_tensor::parallel::with_thread_count(threads, || {
                source.parse_chunked(&text, chunk)
            });
            match (&base, &run) {
                (Ok(a), Ok(b)) => assert_corpora_eq(a, b, &format!("threads={threads}")),
                (Err(a), Err(b)) => {
                    assert_eq!(a.line(), b.line());
                    assert_eq!(a.to_string(), b.to_string());
                }
                (a, b) => panic!("threads={threads}: {a:?} vs {b:?}"),
            }
        }
    }
}
