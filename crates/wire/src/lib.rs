//! **mmdb-wire** — the network protocol for serving an mmdb engine.
//!
//! A deliberately small, dependency-free (`std::net` only) binary
//! protocol: every message is one length-prefixed frame whose payload
//! starts with a protocol version byte and an opcode byte
//! ([`frame`]), followed by a fixed-layout little-endian body
//! ([`message`]). The same crate carries both directions — the typed
//! [`Request`]/[`Response`] enums with exact encode/decode round-trips
//! (property-tested) — plus the blocking [`Client`] used by the load
//! driver, the CLI and tests. Both ends read frames with the one
//! blocking [`read_frame`]; a socket's read timeout is a deadline on
//! the peer, never a poll, so no frame is ever resumed.
//!
//! The protocol surface mirrors the engine's transaction interface
//! (paper §2.4: primitive actions are record reads and writes):
//!
//! * one-shot ops: `Ping`, `Get`, `Put`, `Batch` (a whole transaction,
//!   retried server-side on two-color aborts exactly like
//!   [`run_txn`](../mmdb_core/struct.Mmdb.html#method.run_txn)),
//! * interactive transactions: `Begin` / `Read` / `Write` / `Commit` /
//!   `Abort` (the server aborts a connection's open transactions when
//!   the connection drops),
//! * operations and control: `Stats` (the unified metrics snapshot as
//!   JSON), `Checkpoint` (begin or run-to-completion), `Fingerprint`,
//!   `Info`, and `Shutdown` (graceful server stop).
//!
//! Errors travel as first-class [`Response::Error`] frames carrying an
//! [`ErrorCode`]; [`ErrorCode::Transient`] marks "retry the
//! transaction" outcomes (two-color aborts surfacing through a
//! quiesce, COU quiesce refusals) so closed-loop clients can
//! distinguish protocol failures from ordinary checkpoint interference.

#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod message;

pub use client::Client;
pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME_BYTES, PROTOCOL_VERSION};
pub use message::{
    CkptStartState, CkptSummary, ErrorCode, ReplWelcome, Request, Response, ScanRecords,
    ServerInfo, TraceContext, FLAG_TRACED, REPL_VERSION,
};

use std::fmt;
use std::io;

/// Errors surfaced by the wire layer and the blocking client.
#[derive(Debug)]
pub enum WireError {
    /// A transport-level I/O failure (connection reset, timeout, ...).
    Io(io::Error),
    /// A malformed frame or message (bad version, unknown opcode,
    /// truncated or trailing bytes, oversized frame).
    Protocol(String),
    /// The server answered with an error frame.
    Remote {
        /// Machine-readable classification.
        code: ErrorCode,
        /// Human-readable server-side message.
        message: String,
    },
    /// The server answered with a well-formed frame of the wrong kind
    /// for the request that was sent.
    Unexpected(String),
}

impl WireError {
    /// True when the operation may simply be retried (checkpoint
    /// interference, not a caller bug): remote [`ErrorCode::Transient`]
    /// and [`ErrorCode::Busy`] responses.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            WireError::Remote {
                code: ErrorCode::Transient | ErrorCode::Busy,
                ..
            }
        )
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::Protocol(msg) => write!(f, "wire protocol error: {msg}"),
            WireError::Remote { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            WireError::Unexpected(msg) => write!(f, "unexpected response: {msg}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => WireError::Io(e),
            FrameError::TooLarge { len, max } => {
                WireError::Protocol(format!("frame of {len} bytes exceeds the {max}-byte cap"))
            }
        }
    }
}

/// Convenience alias for wire-layer results.
pub type WireResult<T> = std::result::Result<T, WireError>;
