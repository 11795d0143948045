//! The shared error type for the workspace.

use crate::ids::{RecordId, SegmentId, TxnId};
use std::fmt;
use std::io;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, MmdbError>;

/// Errors surfaced by the engine and its substrates.
#[derive(Debug)]
pub enum MmdbError {
    /// A transaction attempted to access both a white and a black segment
    /// during an active two-color checkpoint and must be aborted and
    /// rerun (paper §3.2.1).
    TwoColorViolation {
        /// The violating transaction.
        txn: TxnId,
        /// The access that would have straddled colors.
        segment: SegmentId,
    },
    /// A record id out of range for the database.
    RecordOutOfRange {
        /// The offending record.
        record: RecordId,
        /// Number of records in the database.
        n_records: u64,
    },
    /// A segment id out of range for the database.
    SegmentOutOfRange {
        /// The offending segment.
        segment: SegmentId,
        /// Number of segments in the database.
        n_segments: u64,
    },
    /// Operation on a transaction that is not active (already committed
    /// or aborted, or never begun).
    NoSuchTxn(TxnId),
    /// A value written to a record has the wrong length.
    BadRecordSize {
        /// Expected length in words.
        expected: u64,
        /// Provided length in words.
        got: u64,
    },
    /// The requested checkpoint algorithm is unsound under the current
    /// log-tail mode (FASTFUZZY with a volatile tail).
    UnsoundConfiguration(String),
    /// A checkpoint is already in progress.
    CheckpointInProgress,
    /// No checkpoint is in progress.
    NoCheckpointInProgress,
    /// Transaction processing is quiesced (a COU checkpoint is starting);
    /// the transaction must be retried after the quiesce point.
    Quiesced,
    /// Recovery found no complete backup to restore from.
    NoCompleteBackup,
    /// Data failed validation: on disk (bad magic, checksum, or torn
    /// write detected), or in memory (a record's segment stuck
    /// mid-publish).
    Corrupt(String),
    /// A log frame whose checksum verifies but which does not decode: a
    /// newer build wrote it, so it is whole, not torn. Recovery stops
    /// here with this error instead of cutting the log (and every commit
    /// after it) off as a torn tail.
    NewerFormat(String),
    /// Invalid parameters or usage.
    Invalid(String),
    /// An underlying I/O error from the host filesystem.
    Io(io::Error),
}

impl fmt::Display for MmdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MmdbError::TwoColorViolation { txn, segment } => write!(
                f,
                "{txn} aborted: two-color violation accessing {segment} during checkpoint"
            ),
            MmdbError::RecordOutOfRange { record, n_records } => {
                write!(
                    f,
                    "{record} out of range (database has {n_records} records)"
                )
            }
            MmdbError::SegmentOutOfRange {
                segment,
                n_segments,
            } => write!(
                f,
                "{segment} out of range (database has {n_segments} segments)"
            ),
            MmdbError::NoSuchTxn(t) => write!(f, "{t} is not active"),
            MmdbError::BadRecordSize { expected, got } => {
                write!(f, "record value has {got} words, expected {expected}")
            }
            MmdbError::UnsoundConfiguration(msg) => write!(f, "unsound configuration: {msg}"),
            MmdbError::CheckpointInProgress => write!(f, "a checkpoint is already in progress"),
            MmdbError::NoCheckpointInProgress => write!(f, "no checkpoint is in progress"),
            MmdbError::Quiesced => write!(
                f,
                "transaction processing is quiesced for a checkpoint begin"
            ),
            MmdbError::NoCompleteBackup => {
                write!(f, "recovery found no complete backup database copy")
            }
            MmdbError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            MmdbError::NewerFormat(msg) => write!(f, "frame from a newer log format: {msg}"),
            MmdbError::Invalid(msg) => write!(f, "invalid: {msg}"),
            MmdbError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for MmdbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MmdbError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for MmdbError {
    fn from(e: io::Error) -> Self {
        MmdbError::Io(e)
    }
}

impl MmdbError {
    /// True for errors that mean "abort and rerun the transaction"
    /// rather than "the caller did something wrong": two-color
    /// violations and quiesce waits.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            MmdbError::TwoColorViolation { .. } | MmdbError::Quiesced
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MmdbError::TwoColorViolation {
            txn: TxnId(7),
            segment: SegmentId(3),
        };
        let s = e.to_string();
        assert!(s.contains("TxnId(7)"));
        assert!(s.contains("two-color"));
    }

    #[test]
    fn transient_classification() {
        assert!(MmdbError::TwoColorViolation {
            txn: TxnId(1),
            segment: SegmentId(0)
        }
        .is_transient());
        assert!(MmdbError::Quiesced.is_transient());
        assert!(!MmdbError::NoCompleteBackup.is_transient());
        assert!(!MmdbError::Io(io::Error::other("x")).is_transient());
    }

    #[test]
    fn io_error_conversion_preserves_source() {
        let e: MmdbError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("gone"));
    }
}
