//! A unified source abstraction over synthetic generators and file-backed
//! real traces.
//!
//! Every dataset the pipeline can score — the synthetic [`crate::power`] /
//! [`crate::mhealth`] generators and (behind the `real-data` feature) the
//! `ingest` CSV/NDJSON trace loaders — produces the same shape:
//! a [`LabeledCorpus`] of windows plus per-window anomaly-class ids, which
//! is exactly what [`crate::paper_split`] consumes. [`DatasetSource`]
//! abstracts over *where* that corpus comes from, so the experiment
//! pipeline is agnostic to synthetic vs real data.

use crate::mhealth::MhealthGenerator;
use crate::power::PowerGenerator;
use crate::window::LabeledWindow;

/// A labelled corpus plus per-window anomaly-class ids — the input shape
/// of [`crate::paper_split`] (`None` = normal, `Some(c)` = anomaly class
/// `c`, stratified for the paper's "5 % of each class" sampling).
#[derive(Debug, Clone)]
pub struct LabeledCorpus {
    /// The windows, in corpus order.
    pub windows: Vec<LabeledWindow>,
    /// Per-window anomaly class (`None` = normal), parallel to `windows`.
    pub classes: Vec<Option<usize>>,
}

impl LabeledCorpus {
    /// Bundles windows with their class ids.
    ///
    /// # Panics
    ///
    /// Panics if the vectors' lengths differ, or if any window's
    /// anomaly label disagrees with its class id (`Some` ⇔ anomalous) —
    /// a source adapter bug, not a data defect.
    pub fn new(windows: Vec<LabeledWindow>, classes: Vec<Option<usize>>) -> Self {
        assert_eq!(windows.len(), classes.len(), "windows and classes must be parallel");
        for (i, (w, c)) in windows.iter().zip(classes.iter()).enumerate() {
            assert_eq!(w.anomalous, c.is_some(), "window {i}: anomaly label and class id disagree");
        }
        Self { windows, classes }
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether the corpus holds no windows.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Windows labelled normal.
    pub fn normal_count(&self) -> usize {
        self.classes.iter().filter(|c| c.is_none()).count()
    }

    /// Windows per anomaly class, as sorted `(class, count)` pairs.
    pub fn class_counts(&self) -> Vec<(usize, usize)> {
        let mut counts = std::collections::BTreeMap::new();
        for c in self.classes.iter().flatten() {
            *counts.entry(*c).or_insert(0usize) += 1;
        }
        counts.into_iter().collect()
    }
}

/// An error raised while loading a dataset from a source.
///
/// File-backed sources report the **1-based line number** of the offending
/// record wherever one exists, so a malformed trace points straight at the
/// line to fix. Synthetic sources never fail.
#[derive(Debug)]
pub enum IngestError {
    /// The trace could not be read (open failure, disk error, bad UTF-8).
    /// `line` is the last successfully read line (0 = open failure).
    Io {
        /// Logical name of the trace being read.
        name: String,
        /// Last line successfully read before the failure.
        line: u64,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A malformed line: unparseable field, invalid JSON, wrong arity.
    Parse {
        /// 1-based line number of the malformed line.
        line: u64,
        /// What was wrong.
        message: String,
    },
    /// A missing or non-finite sample the active
    /// `ingest::MissingValuePolicy` rejects.
    Missing {
        /// 1-based line number of the offending sample.
        line: u64,
        /// What was missing and why the policy could not resolve it.
        message: String,
    },
    /// A structurally valid record that violates the dataset schema
    /// (label out of range, inconsistent day label, …).
    Schema {
        /// 1-based line number of the offending record.
        line: u64,
        /// The schema rule that was violated.
        message: String,
    },
}

impl IngestError {
    /// The 1-based line number the error points at (0 = before line 1).
    pub fn line(&self) -> u64 {
        match self {
            IngestError::Io { line, .. }
            | IngestError::Parse { line, .. }
            | IngestError::Missing { line, .. }
            | IngestError::Schema { line, .. } => *line,
        }
    }
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io { name, line, source } => {
                write!(f, "{name}: I/O error after line {line}: {source}")
            }
            IngestError::Parse { line, message } => write!(f, "line {line}: {message}"),
            IngestError::Missing { line, message } => write!(f, "line {line}: {message}"),
            IngestError::Schema { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A dataset the pipeline can load and score: synthetic generator or
/// file-backed trace, behind one interface.
pub trait DatasetSource {
    /// Human-readable source name (used in reports; must be stable so
    /// repro output stays byte-identical).
    fn name(&self) -> String;

    /// Number of sensor channels every window carries.
    fn channels(&self) -> usize;

    /// Loads (or synthesises) the corpus.
    fn load(&self) -> Result<LabeledCorpus, IngestError>;
}

impl DatasetSource for PowerGenerator {
    fn name(&self) -> String {
        format!("synthetic-power(days={})", self.config().days)
    }

    fn channels(&self) -> usize {
        1
    }

    fn load(&self) -> Result<LabeledCorpus, IngestError> {
        let days = self.generate();
        let classes = days.iter().map(|(_, k)| k.map(|kind| kind.class_index())).collect();
        let windows = days.into_iter().map(|(w, _)| w).collect();
        Ok(LabeledCorpus::new(windows, classes))
    }
}

impl DatasetSource for MhealthGenerator {
    fn name(&self) -> String {
        format!("synthetic-mhealth(subjects={})", self.config().subjects)
    }

    fn channels(&self) -> usize {
        crate::mhealth::CHANNELS
    }

    fn load(&self) -> Result<LabeledCorpus, IngestError> {
        let pairs = self.generate();
        let classes =
            pairs.iter().map(|(_, a)| if a.is_normal() { None } else { Some(a.index()) }).collect();
        let windows = pairs.into_iter().map(|(w, _)| w).collect();
        Ok(LabeledCorpus::new(windows, classes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mhealth::MhealthConfig;
    use crate::power::PowerConfig;
    use hec_tensor::Matrix;

    #[test]
    fn power_generator_is_a_source() {
        let gen = PowerGenerator::new(PowerConfig { days: 30, ..Default::default() });
        assert_eq!(gen.channels(), 1);
        assert!(gen.name().contains("synthetic-power"));
        let corpus = gen.load().unwrap();
        assert_eq!(corpus.len(), 30);
        let class_total: usize = corpus.class_counts().iter().map(|(_, n)| n).sum();
        assert_eq!(corpus.normal_count() + class_total, 30, "every window is normal or classed");
        assert!(corpus.normal_count() > 0 && class_total > 0, "default rate mixes both kinds");
        // Source output matches the generator's direct output exactly.
        let direct = gen.generate();
        for ((w, k), (cw, cc)) in
            direct.iter().zip(corpus.windows.iter().zip(corpus.classes.iter()))
        {
            assert_eq!(&w.data, &cw.data);
            assert_eq!(k.map(|kind| kind.class_index()), *cc);
        }
    }

    #[test]
    fn mhealth_generator_is_a_source() {
        let gen = MhealthGenerator::new(MhealthConfig {
            subjects: 2,
            session_len: 256,
            normal_session_multiplier: 2,
            ..Default::default()
        });
        assert_eq!(gen.channels(), 18);
        let corpus = gen.load().unwrap();
        assert!(!corpus.is_empty());
        assert!(corpus.normal_count() > 0);
        // 11 anomalous activities.
        assert_eq!(corpus.class_counts().len(), 11);
    }

    #[test]
    fn class_counts_aggregate() {
        let w = |a: bool| LabeledWindow::new(Matrix::zeros(2, 1), a);
        let corpus = LabeledCorpus::new(
            vec![w(false), w(true), w(true), w(true)],
            vec![None, Some(0), Some(2), Some(2)],
        );
        assert_eq!(corpus.normal_count(), 1);
        assert_eq!(corpus.class_counts(), vec![(0, 1), (2, 2)]);
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn inconsistent_labels_rejected() {
        let w = LabeledWindow::new(Matrix::zeros(2, 1), true);
        let _ = LabeledCorpus::new(vec![w], vec![None]);
    }

    #[test]
    fn error_display_carries_line_numbers() {
        let e = IngestError::Parse { line: 17, message: "expected 2 fields, got 3".into() };
        assert_eq!(e.to_string(), "line 17: expected 2 fields, got 3");
        assert_eq!(e.line(), 17);
        let io = IngestError::Io {
            name: "trace.csv".into(),
            line: 4,
            source: std::io::Error::new(std::io::ErrorKind::InvalidData, "bad utf-8"),
        };
        assert!(io.to_string().contains("after line 4"), "{io}");
    }
}
