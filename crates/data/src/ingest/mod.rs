//! Streaming real-trace ingestion (feature `real-data`).
//!
//! Hand-rolled, allocation-lean readers for the two trace formats the
//! paper's datasets ship in — no external parser crates (the build
//! environment is vendored-stubs only):
//!
//! * [`csv`] — comma-separated records ([`csv::CsvReader`]): blank
//!   lines and `#` comments skipped, CRLF tolerated, one reusable line
//!   buffer and field-bounds vector for the whole stream;
//! * [`ndjson`] — newline-delimited JSON ([`ndjson::NdjsonReader`]): one
//!   flat object per line over a documented JSON subset (numbers,
//!   escape-free strings, booleans, `null`, arrays of numbers), parsed
//!   into reusable buffers.
//!
//! [`schema`] adapts the raw records to the paper's two dataset layouts —
//! UCI-power-demand-shaped CSV and MHEALTH-shaped NDJSON — producing the
//! same [`LabeledCorpus`](crate::source::LabeledCorpus) shape as the
//! synthetic generators, behind the shared
//! [`DatasetSource`](crate::source::DatasetSource) trait.
//!
//! [`chunked`] is the high-throughput variant of the same contract: the
//! byte stream splits into newline-snapped per-worker ranges, each worker
//! scans its range in place into compact columns, and a stitch phase
//! replays them through the serial builders a run at a time. Input that
//! fails is handed to the serial reader, which words the error —
//! byte-identical corpus *and errors* at any thread count or chunk size
//! (`PowerCsvSource::load_chunked` / `MhealthNdjsonSource::load_chunked`).
//!
//! **Missing values are an explicit policy, never a silent NaN.** Real
//! traces have gaps (dropped samples, sensor faults, `null` / empty
//! fields); a single NaN reaching [`crate::Standardizer::fit`] would
//! poison every channel statistic. Every adapter therefore routes each
//! sample through a [`MissingValuePolicy`]: `Reject` fails fast with the
//! offending line number, `ImputePrevious` carries the channel's last
//! finite value forward (and still fails, with a line number, when there
//! is nothing to carry). Non-finite numeric values (`NaN`, `±inf`) are
//! treated as missing, so a loaded corpus is finite by construction.
//!
//! Every error path reports the **1-based line number** of the offending
//! record ([`IngestError`]) — malformed
//! traces fail with a pointer at the line to fix, never a panic.

pub mod chunked;
pub mod csv;
pub mod ndjson;
pub mod schema;

pub use chunked::chunk_ranges;
pub use csv::CsvReader;
pub use ndjson::{JsonValue, NdjsonReader};
pub use schema::{MhealthNdjsonSource, PowerCsvSource};

use crate::source::IngestError;

/// What ingestion does with a missing or non-finite sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissingValuePolicy {
    /// Fail the load with the offending line number.
    Reject,
    /// Carry the channel's last finite value forward; fail (with the
    /// line number) when a gap starts before any finite value arrived.
    ImputePrevious,
}

impl std::fmt::Display for MissingValuePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MissingValuePolicy::Reject => write!(f, "reject"),
            MissingValuePolicy::ImputePrevious => write!(f, "impute-previous"),
        }
    }
}

/// Applies a [`MissingValuePolicy`] across a fixed set of channels,
/// remembering each channel's last finite value.
#[derive(Debug, Clone)]
pub struct Imputer {
    policy: MissingValuePolicy,
    last: Vec<Option<f32>>,
}

impl Imputer {
    /// Creates an imputer for `channels` channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn new(policy: MissingValuePolicy, channels: usize) -> Self {
        assert!(channels > 0, "need at least one channel");
        Self { policy, last: vec![None; channels] }
    }

    /// The active policy.
    pub fn policy(&self) -> MissingValuePolicy {
        self.policy
    }

    /// Forgets all remembered values (call at session boundaries so
    /// impute-previous never bridges unrelated recordings).
    pub fn reset(&mut self) {
        self.last.iter_mut().for_each(|v| *v = None);
    }

    /// Resolves one sample: `None` (or a non-finite number) is missing
    /// and goes through the policy; finite values pass through and are
    /// remembered. `line` is the record's 1-based line number, used in
    /// error reports.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn resolve(
        &mut self,
        channel: usize,
        raw: Option<f32>,
        line: u64,
    ) -> Result<f32, IngestError> {
        let slot = &mut self.last[channel];
        match raw {
            Some(v) if v.is_finite() => {
                *slot = Some(v);
                Ok(v)
            }
            _ => match self.policy {
                MissingValuePolicy::Reject => Err(IngestError::Missing {
                    line,
                    message: format!(
                        "missing or non-finite value in channel {channel} (policy: reject)"
                    ),
                }),
                MissingValuePolicy::ImputePrevious => slot.ok_or_else(|| IngestError::Missing {
                    line,
                    message: format!(
                        "missing value in channel {channel} with no previous finite value to \
                         impute (policy: impute-previous)"
                    ),
                }),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_fails_with_line_number() {
        let mut imp = Imputer::new(MissingValuePolicy::Reject, 2);
        assert_eq!(imp.resolve(0, Some(1.5), 3).unwrap(), 1.5);
        let err = imp.resolve(1, None, 4).unwrap_err();
        assert_eq!(err.line(), 4);
        assert!(err.to_string().contains("channel 1"), "{err}");
    }

    #[test]
    fn non_finite_counts_as_missing() {
        let mut imp = Imputer::new(MissingValuePolicy::Reject, 1);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert!(imp.resolve(0, Some(bad), 9).is_err());
        }
    }

    #[test]
    fn impute_previous_carries_last_finite_value() {
        let mut imp = Imputer::new(MissingValuePolicy::ImputePrevious, 1);
        assert_eq!(imp.resolve(0, Some(2.0), 1).unwrap(), 2.0);
        assert_eq!(imp.resolve(0, None, 2).unwrap(), 2.0);
        assert_eq!(imp.resolve(0, Some(f32::NAN), 3).unwrap(), 2.0);
        assert_eq!(imp.resolve(0, Some(5.0), 4).unwrap(), 5.0);
        assert_eq!(imp.resolve(0, None, 5).unwrap(), 5.0);
    }

    #[test]
    fn impute_with_no_history_fails_with_line_number() {
        let mut imp = Imputer::new(MissingValuePolicy::ImputePrevious, 1);
        let err = imp.resolve(0, None, 7).unwrap_err();
        assert_eq!(err.line(), 7);
        assert!(err.to_string().contains("no previous finite value"), "{err}");
    }

    #[test]
    fn reset_clears_history_per_channel() {
        let mut imp = Imputer::new(MissingValuePolicy::ImputePrevious, 2);
        imp.resolve(0, Some(1.0), 1).unwrap();
        imp.reset();
        assert!(imp.resolve(0, None, 2).is_err(), "reset must forget channel 0");
    }
}
