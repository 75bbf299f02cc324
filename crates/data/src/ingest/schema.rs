//! Schema adapters: raw CSV/NDJSON records → the paper's dataset layouts.
//!
//! * [`PowerCsvSource`] — the UCI-power-demand layout: a univariate
//!   demand series, one reading per line (`demand[,label]`), grouped
//!   into fixed-length day windows. Labels are day-granular: `0` (or an
//!   omitted field) = normal, `k ≥ 1` = anomaly class `k − 1`, and every
//!   reading of a day must agree on the label.
//! * [`MhealthNdjsonSource`] — the MHEALTH layout: one sample per line
//!   (`{"ch": [18 numbers], "activity": 0..11, "subject": n}`), windowed
//!   per contiguous `(subject, activity)` session with the paper's
//!   sliding-window protocol. Activity indices follow
//!   [`Activity::ALL`]; walking is normal, everything else anomalous.
//!
//! Both adapters stream through the allocation-lean readers, resolve
//! every sample through the configured [`MissingValuePolicy`] *before*
//! any window is built (so standardisation never sees a NaN), and
//! surface malformed input as line-numbered [`IngestError`]s.

use std::io::BufRead;
use std::path::{Path, PathBuf};

use hec_tensor::Matrix;

use crate::ingest::csv::{CsvReader, CsvRecord};
use crate::ingest::ndjson::{NdjsonReader, NdjsonRecord};
use crate::ingest::{Imputer, MissingValuePolicy};
use crate::mhealth::{Activity, CHANNELS};
use crate::source::{DatasetSource, IngestError, LabeledCorpus};
use crate::window::{sliding_windows, LabeledWindow};

/// Opens a trace file, reporting failures as line-0 I/O errors.
fn open(path: &Path, name: &str) -> Result<std::io::BufReader<std::fs::File>, IngestError> {
    let file = std::fs::File::open(path).map_err(|e| IngestError::Io {
        name: name.to_owned(),
        line: 0,
        source: e,
    })?;
    Ok(std::io::BufReader::new(file))
}

/// Logical trace name for error reports: the file name only, never the
/// absolute path (keeps repro output byte-identical across machines).
pub(crate) fn trace_name(path: &Path) -> String {
    path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_else(|| "?".into())
}

/// The stateless per-record part of a power-demand reading, extracted by
/// [`PowerRow::extract`]: the serial reader's one-row hand-off to
/// [`PowerBuilder::push`], and what a chunk worker reads a record through
/// before filing it into its columns — one extraction, so both paths agree
/// on every field rule. The label parse is *deferred* (stored as a
/// `Result`) because the builder resolves the value through the imputer
/// before looking at the label: a line like `,bogus` reports the missing
/// value, not the label.
#[derive(Debug)]
pub(crate) struct PowerRow {
    line: u64,
    /// Raw first field: `None` = missing marker, for the imputer.
    pub(crate) raw: Option<f32>,
    /// Deferred label parse (serial order: imputer first, label second).
    pub(crate) label: Result<usize, IngestError>,
}

impl PowerRow {
    /// Extracts the stateless parts of one CSV record, in the serial
    /// reader's error order (arity, then value, label deferred).
    #[inline]
    pub(crate) fn extract(rec: &CsvRecord<'_>) -> Result<Self, IngestError> {
        rec.expect_fields(1, 2)?;
        let raw = rec.parse_f32(0)?;
        // An omitted label means normal — both a 1-field row and the
        // trailing-comma export shape `0.35,` (empty second field).
        let label =
            if rec.len() > 1 && !rec.field(1).is_empty() { rec.parse_usize(1) } else { Ok(0) };
        Ok(Self { line: rec.line_number(), raw, label })
    }
}

/// The stateful half of power-demand ingestion: imputation, day-label
/// consistency, and fixed-length day windowing. The serial reader feeds it
/// row by row ([`Self::push`]); the chunked stitch feeds it whole runs
/// ([`Self::extend_run`], [`Self::fill_gap`]) and hands the input back to
/// the serial reader the moment either refuses — so this one type decides
/// every window, and only `push` ever words an error.
#[derive(Debug)]
pub(crate) struct PowerBuilder {
    samples_per_day: usize,
    imputer: Imputer,
    windows: Vec<LabeledWindow>,
    classes: Vec<Option<usize>>,
    day: Vec<f32>,
    /// The current day's label and the line that established it.
    day_label: Option<(usize, u64)>,
}

impl PowerBuilder {
    pub(crate) fn new(policy: MissingValuePolicy, samples_per_day: usize) -> Self {
        Self {
            samples_per_day,
            imputer: Imputer::new(policy, 1),
            windows: Vec::new(),
            classes: Vec::new(),
            day: Vec::with_capacity(samples_per_day),
            day_label: None,
        }
    }

    /// Replays one row through the stateful machinery (imputer → label →
    /// day-label consistency → day windowing), in serial order.
    pub(crate) fn push(&mut self, row: PowerRow) -> Result<(), IngestError> {
        let value = self.imputer.resolve(0, row.raw, row.line)?;
        let label = row.label?;
        match self.day_label {
            None => self.day_label = Some((label, row.line)),
            Some((l, at)) if l != label => {
                return Err(IngestError::Schema {
                    line: row.line,
                    message: format!(
                        "label {label} disagrees with label {l} from line {at}: a day's \
                         readings must share one label"
                    ),
                });
            }
            Some(_) => {}
        }
        self.day.push(value);
        self.close_full_day();
        Ok(())
    }

    /// Emits the day window once the day buffer holds a full day.
    fn close_full_day(&mut self) {
        if self.day.len() == self.samples_per_day {
            // Invariant: every push into `day` first sets `day_label`.
            let (label, _) = self.day_label.take().expect("label set with the day's first reading");
            let day = std::mem::replace(&mut self.day, Vec::with_capacity(self.samples_per_day));
            let data = Matrix::from_vec(self.samples_per_day, 1, day);
            self.windows.push(LabeledWindow::new(data, label > 0));
            self.classes.push((label > 0).then(|| label - 1));
        }
    }

    /// Appends a run of consecutive readings — every value finite, all
    /// under one `label` — exactly as [`Self::push`] would one by one,
    /// slice-extending the day buffer. Returns `false`, at the reading
    /// where `push` would fail, when the run's label disagrees with the
    /// open day's; the caller must then give up on the builder (the line
    /// numbers an error needs were never recorded for these readings).
    pub(crate) fn extend_run(&mut self, mut values: &[f32], label: usize) -> bool {
        let Some(&last) = values.last() else { return true };
        while !values.is_empty() {
            match self.day_label {
                None => self.day_label = Some((label, 0)),
                Some((open, _)) if open != label => return false,
                Some(_) => {}
            }
            let (head, rest) =
                values.split_at(values.len().min(self.samples_per_day - self.day.len()));
            self.day.extend_from_slice(head);
            values = rest;
            self.close_full_day();
        }
        // Only the latest finite value matters to the imputer.
        self.imputer.resolve(0, Some(last), 0).is_ok()
    }

    /// Appends one reading whose value is missing or non-finite, as
    /// [`Self::push`] would; `false` where `push` would fail (the policy
    /// rejects the gap, there is nothing to impute from, or the label
    /// disagrees with the open day's).
    pub(crate) fn fill_gap(&mut self, label: usize) -> bool {
        match self.imputer.resolve(0, None, 0) {
            Ok(value) => self.extend_run(&[value], label),
            Err(_) => false,
        }
    }

    /// Finishes the corpus. A trailing partial day is dropped, matching
    /// the windowing protocol's treatment of incomplete tails.
    pub(crate) fn finish(self) -> LabeledCorpus {
        LabeledCorpus::new(self.windows, self.classes)
    }
}

/// File-backed univariate power-demand trace (CSV).
#[derive(Debug, Clone)]
pub struct PowerCsvSource {
    pub(crate) path: PathBuf,
    pub(crate) samples_per_day: usize,
    pub(crate) policy: MissingValuePolicy,
}

impl PowerCsvSource {
    /// Creates a source reading `path`, grouping every `samples_per_day`
    /// consecutive readings into one day window.
    ///
    /// # Panics
    ///
    /// Panics if `samples_per_day == 0`.
    pub fn new(
        path: impl Into<PathBuf>,
        samples_per_day: usize,
        policy: MissingValuePolicy,
    ) -> Self {
        assert!(samples_per_day > 0, "samples_per_day must be non-zero");
        Self { path: path.into(), samples_per_day, policy }
    }

    /// Parses an already-open stream (exposed for tests; [`DatasetSource::
    /// load`] opens the configured path and delegates here).
    pub fn parse(&self, src: impl BufRead) -> Result<LabeledCorpus, IngestError> {
        let name = trace_name(&self.path);
        let mut reader = CsvReader::new(src, name);
        let mut builder = PowerBuilder::new(self.policy, self.samples_per_day);
        let mut first = true;
        while let Some(rec) = reader.next_record()? {
            if std::mem::take(&mut first) && rec.looks_like_header() {
                continue;
            }
            builder.push(PowerRow::extract(&rec)?)?;
        }
        Ok(builder.finish())
    }
}

impl DatasetSource for PowerCsvSource {
    fn name(&self) -> String {
        format!("power-csv({})", trace_name(&self.path))
    }

    fn channels(&self) -> usize {
        1
    }

    fn load(&self) -> Result<LabeledCorpus, IngestError> {
        let _span = hec_telemetry::WallSpan::new("ingest.load");
        let src = open(&self.path, &trace_name(&self.path))?;
        record_bytes("power-csv", &self.path);
        let corpus = self.parse(src)?;
        record_ingest("power-csv", &corpus);
        Ok(corpus)
    }
}

impl PowerCsvSource {
    /// Loads the configured path through the chunked parallel parser
    /// ([`Self::parse_chunked`]): the whole file is read into memory,
    /// split into one newline-snapped range per
    /// [`hec_tensor::parallel::thread_count`] worker, and parsed
    /// concurrently. Byte-identical corpus/errors and identical
    /// telemetry counters to [`DatasetSource::load`], at any thread
    /// count.
    pub fn load_chunked(&self) -> Result<LabeledCorpus, IngestError> {
        let _span = hec_telemetry::WallSpan::new("ingest.load");
        let name = trace_name(&self.path);
        let bytes =
            std::fs::read(&self.path).map_err(|e| IngestError::Io { name, line: 0, source: e })?;
        record_byte_count("power-csv", bytes.len() as u64);
        let threads = hec_tensor::parallel::thread_count();
        let corpus =
            self.parse_chunked(&bytes, super::chunked::default_chunk_bytes(bytes.len(), threads))?;
        record_ingest("power-csv", &corpus);
        Ok(corpus)
    }
}

/// The stateless per-record part of an MHEALTH sample; channel values
/// travel alongside (borrowed in the serial path, copied into a chunk's
/// flat buffer in the chunked path). All of the record-level checks —
/// activity parse + range, subject, `ch` parse + arity — happen here,
/// *before* any stateful step the serial reader would take, so a chunk
/// worker failing at extraction reports exactly the serial error.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MhealthRow {
    line: u64,
    subject: usize,
    activity: usize,
}

impl MhealthRow {
    /// Extracts one NDJSON record, in the serial reader's error order.
    /// Returns the row plus its `ch` slice (borrowing the record).
    pub(crate) fn extract<'a>(rec: &NdjsonRecord<'a>) -> Result<(Self, &'a [f32]), IngestError> {
        let activity = rec.integer("activity")?;
        if activity >= Activity::ALL.len() {
            return Err(IngestError::Schema {
                line: rec.line_number(),
                message: format!(
                    "activity index {activity} out of range (MHEALTH has {} activities)",
                    Activity::ALL.len()
                ),
            });
        }
        let subject = match rec.get("subject") {
            None => 0,
            Some(_) => rec.integer("subject")?,
        };
        let ch = rec.numbers("ch")?;
        if ch.len() != CHANNELS {
            return Err(IngestError::Schema {
                line: rec.line_number(),
                message: format!("expected {CHANNELS} channels in \"ch\", got {}", ch.len()),
            });
        }
        Ok((Self { line: rec.line_number(), subject, activity }, ch))
    }
}

/// The stateful half of MHEALTH ingestion: session tracking, imputation
/// (reset at session boundaries), and per-session sliding windows. Both
/// the serial and the chunked path feed rows through this one type.
#[derive(Debug)]
pub(crate) struct MhealthBuilder {
    window: usize,
    stride: usize,
    imputer: Imputer,
    windows: Vec<LabeledWindow>,
    classes: Vec<Option<usize>>,
    /// The open session's samples (row-major steps × CHANNELS) and key.
    session: Vec<f32>,
    session_key: Option<(usize, usize)>, // (subject, activity)
}

impl MhealthBuilder {
    pub(crate) fn new(policy: MissingValuePolicy, window: usize, stride: usize) -> Self {
        Self {
            window,
            stride,
            imputer: Imputer::new(policy, CHANNELS),
            windows: Vec::new(),
            classes: Vec::new(),
            session: Vec::new(),
            session_key: None,
        }
    }

    /// Windows out the open session (if any) and discards its buffer.
    fn close_session(&mut self) {
        let Some((_, activity_idx)) = self.session_key else { return };
        let steps = self.session.len() / CHANNELS;
        if steps >= self.window {
            let activity = Activity::ALL[activity_idx];
            let data = Matrix::from_vec(steps, CHANNELS, std::mem::take(&mut self.session));
            for w in sliding_windows(&data, self.window, self.stride) {
                self.windows.push(LabeledWindow::new(w, !activity.is_normal()));
                self.classes.push((!activity.is_normal()).then_some(activity_idx));
            }
        } else {
            // Runs shorter than a window yield nothing (the protocol
            // drops incomplete tails); discard the buffered samples.
            self.session.clear();
        }
    }

    /// Replays one sample through the stateful machinery, in serial
    /// order: session-boundary close + imputer reset, then per-channel
    /// imputation.
    pub(crate) fn push(&mut self, row: MhealthRow, ch: &[f32]) -> Result<(), IngestError> {
        let key = (row.subject, row.activity);
        if self.session_key != Some(key) {
            self.close_session();
            self.session_key = Some(key);
            // Impute-previous must not bridge sessions: a gap at the
            // start of a new activity has no in-session history.
            self.imputer.reset();
        }
        for (c, &raw) in ch.iter().enumerate() {
            let v = self.imputer.resolve(c, Some(raw), row.line)?;
            self.session.push(v);
        }
        Ok(())
    }

    pub(crate) fn finish(mut self) -> LabeledCorpus {
        self.close_session();
        LabeledCorpus::new(self.windows, self.classes)
    }
}

/// File-backed MHEALTH-shaped multivariate trace (NDJSON).
#[derive(Debug, Clone)]
pub struct MhealthNdjsonSource {
    pub(crate) path: PathBuf,
    pub(crate) window: usize,
    pub(crate) stride: usize,
    pub(crate) policy: MissingValuePolicy,
}

impl MhealthNdjsonSource {
    /// Creates a source reading `path`, windowing each contiguous
    /// `(subject, activity)` session with `window`/`stride`.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `stride == 0`.
    pub fn new(
        path: impl Into<PathBuf>,
        window: usize,
        stride: usize,
        policy: MissingValuePolicy,
    ) -> Self {
        assert!(window > 0 && stride > 0, "window/stride must be non-zero");
        Self { path: path.into(), window, stride, policy }
    }

    /// Parses an already-open stream (exposed for tests).
    pub fn parse(&self, src: impl BufRead) -> Result<LabeledCorpus, IngestError> {
        let name = trace_name(&self.path);
        let mut reader = NdjsonReader::new(src, name);
        let mut builder = MhealthBuilder::new(self.policy, self.window, self.stride);
        while let Some(rec) = reader.next_record()? {
            let (row, ch) = MhealthRow::extract(&rec)?;
            builder.push(row, ch)?;
        }
        Ok(builder.finish())
    }
}

impl DatasetSource for MhealthNdjsonSource {
    fn name(&self) -> String {
        format!("mhealth-ndjson({})", trace_name(&self.path))
    }

    fn channels(&self) -> usize {
        CHANNELS
    }

    fn load(&self) -> Result<LabeledCorpus, IngestError> {
        let _span = hec_telemetry::WallSpan::new("ingest.load");
        let src = open(&self.path, &trace_name(&self.path))?;
        record_bytes("mhealth-ndjson", &self.path);
        let corpus = self.parse(src)?;
        record_ingest("mhealth-ndjson", &corpus);
        Ok(corpus)
    }
}

impl MhealthNdjsonSource {
    /// Loads the configured path through the chunked parallel parser —
    /// see [`PowerCsvSource::load_chunked`].
    pub fn load_chunked(&self) -> Result<LabeledCorpus, IngestError> {
        let _span = hec_telemetry::WallSpan::new("ingest.load");
        let name = trace_name(&self.path);
        let bytes =
            std::fs::read(&self.path).map_err(|e| IngestError::Io { name, line: 0, source: e })?;
        record_byte_count("mhealth-ndjson", bytes.len() as u64);
        let threads = hec_tensor::parallel::thread_count();
        let corpus =
            self.parse_chunked(&bytes, super::chunked::default_chunk_bytes(bytes.len(), threads))?;
        record_ingest("mhealth-ndjson", &corpus);
        Ok(corpus)
    }
}

/// Records the trace's on-disk size as the `ingest.bytes` counter. The
/// serial path reads the size from file metadata so its counter equals
/// the chunked path's in-memory byte count — telemetry snapshots stay
/// identical whichever loader ran.
fn record_bytes(format: &'static str, path: &Path) {
    if hec_telemetry::ENABLED {
        if let Ok(meta) = std::fs::metadata(path) {
            record_byte_count(format, meta.len());
        }
    }
}

/// Registry half of [`record_bytes`], shared with the chunked loader.
fn record_byte_count(format: &'static str, bytes: u64) {
    if hec_telemetry::ENABLED {
        hec_telemetry::counter_add("ingest.bytes", &[("format", format)], bytes);
    }
}

/// Records a loaded corpus in the telemetry registry. Window and anomaly
/// counts are pure functions of the trace file, so they are deterministic
/// and registry-safe; parse wall time goes to the sidecar via the
/// `ingest.load` span.
fn record_ingest(format: &'static str, corpus: &LabeledCorpus) {
    if hec_telemetry::ENABLED {
        let labels = [("format", format)];
        hec_telemetry::counter_add("ingest.windows", &labels, corpus.len() as u64);
        let anomalous = corpus.windows.iter().filter(|w| w.anomalous).count();
        hec_telemetry::counter_add("ingest.anomalous_windows", &labels, anomalous as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn power(samples_per_day: usize, policy: MissingValuePolicy) -> PowerCsvSource {
        PowerCsvSource::new("power.csv", samples_per_day, policy)
    }

    fn mhealth(window: usize, stride: usize, policy: MissingValuePolicy) -> MhealthNdjsonSource {
        MhealthNdjsonSource::new("trace.ndjson", window, stride, policy)
    }

    #[test]
    fn power_groups_days_and_labels() {
        let text = "demand,label\n1,0\n2,0\n3,1\n4,1\n5,0\n"; // day size 2, tail dropped
        let corpus = power(2, MissingValuePolicy::Reject).parse(Cursor::new(text)).unwrap();
        assert_eq!(corpus.len(), 2);
        assert!(!corpus.windows[0].anomalous);
        assert_eq!(corpus.windows[0].data.as_slice(), &[1.0, 2.0]);
        assert!(corpus.windows[1].anomalous);
        assert_eq!(corpus.classes[1], Some(0));
    }

    #[test]
    fn power_label_column_is_optional() {
        let corpus =
            power(2, MissingValuePolicy::Reject).parse(Cursor::new("1\n2\n3\n4\n")).unwrap();
        assert_eq!(corpus.len(), 2);
        assert_eq!(corpus.normal_count(), 2);
        // The trailing-comma export shape (empty label field) also reads
        // as normal, and may mix with explicit `,0` labels within a day.
        let corpus =
            power(2, MissingValuePolicy::Reject).parse(Cursor::new("1,\n2,0\n3,\n4,\n")).unwrap();
        assert_eq!(corpus.len(), 2);
        assert_eq!(corpus.normal_count(), 2);
    }

    #[test]
    fn power_rejects_inconsistent_day_labels() {
        let text = "1,0\n2,2\n";
        let err = power(2, MissingValuePolicy::Reject).parse(Cursor::new(text)).unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("label 2 disagrees"), "{err}");
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn power_missing_value_policies() {
        let text = "1,0\n,0\n3,0\n4,0\n";
        let err = power(2, MissingValuePolicy::Reject).parse(Cursor::new(text)).unwrap_err();
        assert_eq!(err.line(), 2);
        let corpus = power(2, MissingValuePolicy::ImputePrevious).parse(Cursor::new(text)).unwrap();
        assert_eq!(corpus.windows[0].data.as_slice(), &[1.0, 1.0]);
        // A leading gap has nothing to impute from — still a line error.
        let err = power(2, MissingValuePolicy::ImputePrevious)
            .parse(Cursor::new(",0\n2,0\n"))
            .unwrap_err();
        assert_eq!(err.line(), 1);
    }

    #[test]
    fn power_malformed_line_is_line_numbered() {
        let err =
            power(2, MissingValuePolicy::Reject).parse(Cursor::new("1,0\nbogus,0\n")).unwrap_err();
        assert_eq!(err.line(), 2);
        let err =
            power(2, MissingValuePolicy::Reject).parse(Cursor::new("1,0\n2,0,9\n")).unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("expected 1..=2 fields"), "{err}");
    }

    fn sample_line(activity: usize, subject: usize, v: f32) -> String {
        let ch: Vec<String> = (0..CHANNELS).map(|c| format!("{}", v + c as f32)).collect();
        format!("{{\"ch\": [{}], \"activity\": {activity}, \"subject\": {subject}}}", ch.join(", "))
    }

    #[test]
    fn mhealth_windows_per_session() {
        // Walking (activity 3, normal): 6 steps → windows at 0, 2 with
        // window 4 / stride 2; Running (10): 4 steps → 1 window.
        let mut text = String::new();
        for i in 0..6 {
            text.push_str(&sample_line(3, 0, i as f32));
            text.push('\n');
        }
        for i in 0..4 {
            text.push_str(&sample_line(10, 0, 100.0 + i as f32));
            text.push('\n');
        }
        let corpus = mhealth(4, 2, MissingValuePolicy::Reject).parse(Cursor::new(text)).unwrap();
        assert_eq!(corpus.len(), 3);
        assert_eq!(corpus.normal_count(), 2);
        assert_eq!(corpus.class_counts(), vec![(Activity::Running.index(), 1)]);
        assert_eq!(corpus.windows[0].channels(), CHANNELS);
        assert_eq!(corpus.windows[0].data[(0, 0)], 0.0);
        assert_eq!(corpus.windows[2].data[(0, 0)], 100.0);
    }

    #[test]
    fn mhealth_subject_change_splits_sessions() {
        // 3 + 3 steps of the same activity by two subjects: neither run
        // reaches window 4, so no windows at all.
        let mut text = String::new();
        for subject in 0..2 {
            for i in 0..3 {
                text.push_str(&sample_line(3, subject, i as f32));
                text.push('\n');
            }
        }
        let corpus = mhealth(4, 2, MissingValuePolicy::Reject).parse(Cursor::new(text)).unwrap();
        assert!(corpus.is_empty());
    }

    #[test]
    fn mhealth_rejects_bad_arity_and_activity() {
        let err = mhealth(2, 1, MissingValuePolicy::Reject)
            .parse(Cursor::new("{\"ch\": [1, 2], \"activity\": 0}\n"))
            .unwrap_err();
        assert_eq!(err.line(), 1);
        assert!(err.to_string().contains("expected 18 channels"), "{err}");
        assert!(err.to_string().contains("got 2"), "{err}");
        let line = sample_line(12, 0, 0.0);
        let err = mhealth(2, 1, MissingValuePolicy::Reject)
            .parse(Cursor::new(format!("{line}\n")))
            .unwrap_err();
        assert!(err.to_string().contains("activity index 12 out of range"), "{err}");
    }

    #[test]
    fn mhealth_null_samples_follow_policy() {
        let good = sample_line(3, 0, 1.0);
        let gap = good.replacen("[1,", "[null,", 1);
        let text = format!("{good}\n{gap}\n{good}\n{good}\n");
        let err = mhealth(4, 2, MissingValuePolicy::Reject).parse(Cursor::new(&text)).unwrap_err();
        assert_eq!(err.line(), 2);
        let corpus =
            mhealth(4, 2, MissingValuePolicy::ImputePrevious).parse(Cursor::new(&text)).unwrap();
        assert_eq!(corpus.len(), 1);
        // The gap imputed channel 0 from the previous step.
        assert_eq!(corpus.windows[0].data[(1, 0)], 1.0);
    }

    #[test]
    fn mhealth_imputation_does_not_bridge_sessions() {
        let walk = sample_line(3, 0, 1.0);
        let run_gap = sample_line(10, 0, 2.0).replacen("[2,", "[null,", 1);
        let err = mhealth(1, 1, MissingValuePolicy::ImputePrevious)
            .parse(Cursor::new(format!("{walk}\n{run_gap}\n")))
            .unwrap_err();
        assert_eq!(err.line(), 2, "gap at a session start must not borrow the previous session");
    }
}
