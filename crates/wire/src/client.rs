//! The blocking client: one TCP connection speaking the wire protocol.
//!
//! Deliberately synchronous (`std::net::TcpStream`, no async runtime):
//! the load driver runs one closed-loop client per thread, which is
//! exactly the deployment shape the protocol targets. Every method is
//! one request/response exchange; [`Client::request`] is the raw
//! escape hatch for harnesses that want to speak frames directly.

use crate::frame::{read_frame, write_frame};
use crate::message::{
    CkptStartState, CkptSummary, ErrorCode, ReplWelcome, Request, Response, ServerInfo,
    TraceContext, REPL_VERSION,
};
use crate::{WireError, WireResult};
use mmdb_types::{RecordId, TxnId, Word};
use std::io::BufWriter;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Distinguishes clients within a process so their trace ids never
/// collide even when they trace concurrently.
static CLIENT_SEQ: AtomicU64 = AtomicU64::new(1);

/// splitmix64: a cheap, dependency-free bijective mixer — distinct
/// inputs give distinct, well-scattered trace ids.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A blocking connection to an mmdb server.
#[derive(Debug)]
pub struct Client {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
    /// When true, every request carries a fresh [`TraceContext`].
    tracing: bool,
    /// Per-client component of the trace id (process-unique).
    trace_seed: u64,
    /// Requests traced so far on this client.
    trace_seq: u64,
    /// The trace id of the most recently sent traced request.
    last_trace_id: u64,
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:7878"`).
    pub fn connect(addr: impl ToSocketAddrs) -> WireResult<Client> {
        let stream = TcpStream::connect(addr)?;
        Client::over(stream)
    }

    /// Wraps an already-connected stream.
    pub fn over(stream: TcpStream) -> WireResult<Client> {
        stream.set_nodelay(true)?;
        let writer = BufWriter::new(stream.try_clone()?);
        Ok(Client {
            reader: stream,
            writer,
            tracing: false,
            trace_seed: CLIENT_SEQ.fetch_add(1, Ordering::Relaxed),
            trace_seq: 0,
            last_trace_id: 0,
        })
    }

    /// Turns request tracing on or off. While on, every request
    /// carries a fresh [`TraceContext`] in its frame header so the
    /// server's flight recorder can attribute the request's span tree.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// The trace id of the most recently sent traced request (0 if no
    /// traced request has been sent). Lets harnesses correlate a
    /// specific request with the server's trace dump.
    pub fn last_trace_id(&self) -> u64 {
        self.last_trace_id
    }

    /// Mints the next trace context, or `None` when tracing is off.
    fn next_trace(&mut self) -> Option<TraceContext> {
        if !self.tracing {
            return None;
        }
        self.trace_seq += 1;
        let trace_id = splitmix64(self.trace_seed.rotate_left(32) ^ self.trace_seq);
        self.last_trace_id = trace_id;
        Some(TraceContext {
            trace_id,
            // the client-side root span for this request
            parent_span: splitmix64(trace_id),
        })
    }

    /// Bounds how long any single response may take (`None` waits
    /// forever). Protects closed-loop drivers from a hung server.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> WireResult<()> {
        self.reader.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Sends one request and reads one response. Server-side `Error`
    /// frames come back as [`WireError::Remote`]. With tracing enabled
    /// (see [`Client::set_tracing`]) the request carries a fresh trace
    /// context; otherwise the bytes are identical to an untraced build.
    pub fn request(&mut self, req: &Request) -> WireResult<Response> {
        let trace = self.next_trace();
        write_frame(&mut self.writer, &req.encode_with_trace(trace))?;
        let payload = read_frame(&mut self.reader)?
            .ok_or_else(|| WireError::Protocol("server closed the connection".into()))?;
        match Response::decode(&payload)? {
            Response::Error { code, message } => Err(WireError::Remote { code, message }),
            resp => Ok(resp),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> WireResult<()> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Static facts about the served database.
    pub fn info(&mut self) -> WireResult<ServerInfo> {
        match self.request(&Request::Info)? {
            Response::Info(info) => Ok(info),
            other => Err(unexpected("Info", &other)),
        }
    }

    /// Reads a committed record outside any transaction.
    pub fn get(&mut self, rid: RecordId) -> WireResult<Vec<Word>> {
        match self.request(&Request::Get { rid })? {
            Response::Value { words } => Ok(words),
            other => Err(unexpected("Value", &other)),
        }
    }

    /// Commits a single-record update as one transaction; returns
    /// `(txn, runs)`.
    pub fn put(&mut self, rid: RecordId, value: &[Word]) -> WireResult<(TxnId, u32)> {
        let req = Request::Put {
            rid,
            value: value.to_vec(),
        };
        match self.request(&req)? {
            Response::Committed { txn, runs } => Ok((txn, runs)),
            other => Err(unexpected("Committed", &other)),
        }
    }

    /// Commits a multi-record update as one transaction; returns
    /// `(txn, runs)`.
    pub fn batch(&mut self, updates: &[(RecordId, Vec<Word>)]) -> WireResult<(TxnId, u32)> {
        let req = Request::Batch {
            updates: updates.to_vec(),
        };
        match self.request(&req)? {
            Response::Committed { txn, runs } => Ok((txn, runs)),
            other => Err(unexpected("Committed", &other)),
        }
    }

    /// Begins an interactive transaction owned by this connection.
    pub fn begin(&mut self) -> WireResult<TxnId> {
        match self.request(&Request::Begin)? {
            Response::Begun { txn } => Ok(txn),
            other => Err(unexpected("Begun", &other)),
        }
    }

    /// Reads a record inside an interactive transaction
    /// (read-your-writes semantics, like the engine).
    pub fn read(&mut self, txn: TxnId, rid: RecordId) -> WireResult<Vec<Word>> {
        match self.request(&Request::Read { txn, rid })? {
            Response::Value { words } => Ok(words),
            other => Err(unexpected("Value", &other)),
        }
    }

    /// Stages a write inside an interactive transaction.
    pub fn write(&mut self, txn: TxnId, rid: RecordId, value: &[Word]) -> WireResult<()> {
        let req = Request::Write {
            txn,
            rid,
            value: value.to_vec(),
        };
        match self.request(&req)? {
            Response::Ok => Ok(()),
            other => Err(unexpected("Ok", &other)),
        }
    }

    /// Commits an interactive transaction.
    pub fn commit(&mut self, txn: TxnId) -> WireResult<(TxnId, u32)> {
        match self.request(&Request::Commit { txn })? {
            Response::Committed { txn, runs } => Ok((txn, runs)),
            other => Err(unexpected("Committed", &other)),
        }
    }

    /// Aborts an interactive transaction.
    pub fn abort(&mut self, txn: TxnId) -> WireResult<()> {
        match self.request(&Request::Abort { txn })? {
            Response::Ok => Ok(()),
            other => Err(unexpected("Ok", &other)),
        }
    }

    /// The unified metrics snapshot as pretty JSON.
    pub fn stats_json(&mut self) -> WireResult<String> {
        match self.request(&Request::Stats)? {
            Response::StatsJson { json } => Ok(json),
            other => Err(unexpected("StatsJson", &other)),
        }
    }

    /// Runs a checkpoint to completion and returns its report.
    pub fn checkpoint_sync(&mut self) -> WireResult<CkptSummary> {
        match self.request(&Request::Checkpoint { sync: true })? {
            Response::CkptDone(s) => Ok(s),
            other => Err(unexpected("CkptDone", &other)),
        }
    }

    /// Requests a checkpoint and returns immediately; the server's
    /// checkpointer thread drives it.
    pub fn checkpoint_async(&mut self) -> WireResult<CkptStartState> {
        match self.request(&Request::Checkpoint { sync: false })? {
            Response::CkptStarted { state } => Ok(state),
            other => Err(unexpected("CkptStarted", &other)),
        }
    }

    /// Content fingerprint of the committed database.
    pub fn fingerprint(&mut self) -> WireResult<u64> {
        match self.request(&Request::Fingerprint)? {
            Response::Fingerprint { fp } => Ok(fp),
            other => Err(unexpected("Fingerprint", &other)),
        }
    }

    /// Fetches the server's slow-request log and recent flight-recorder
    /// spans as JSON (schema `mmdb-trace/v1`). `limit` caps the number
    /// of flight-recorder spans returned.
    pub fn trace_dump(&mut self, limit: u32) -> WireResult<String> {
        match self.request(&Request::TraceDump { limit })? {
            Response::TraceDump { json } => Ok(json),
            other => Err(unexpected("TraceDump", &other)),
        }
    }

    /// Introduces this connection as a replication standby and
    /// negotiates the replication version (this build offers 1 through
    /// [`REPL_VERSION`]). Returns the primary's welcome: negotiated
    /// version plus topology facts the standby must match.
    pub fn repl_hello(&mut self) -> WireResult<ReplWelcome> {
        let req = Request::ReplHello {
            ver_min: 1,
            ver_max: REPL_VERSION,
        };
        match self.request(&req)? {
            Response::ReplWelcome(w) => Ok(w),
            other => Err(unexpected("ReplWelcome", &other)),
        }
    }

    /// Acknowledges `applied` on one shard's log and pulls the next
    /// batch, long-polling up to `wait_ms` server-side. Returns
    /// `(start, durable, bytes)`; empty `bytes` means the poll timed
    /// out with nothing new past `applied`.
    pub fn repl_pull(
        &mut self,
        shard: u32,
        applied: u64,
        max_bytes: u32,
        wait_ms: u32,
    ) -> WireResult<(u64, u64, Vec<u8>)> {
        let req = Request::ReplAck {
            shard,
            applied,
            max_bytes,
            wait_ms,
        };
        match self.request(&req)? {
            Response::ReplBatch {
                shard: got,
                start,
                durable,
                bytes,
            } => {
                if got != shard {
                    return Err(WireError::Unexpected(format!(
                        "batch for shard {got}, wanted {shard}"
                    )));
                }
                Ok((start, durable, bytes))
            }
            other => Err(unexpected("ReplBatch", &other)),
        }
    }

    /// Bulk-reads one page of a shard's committed records for standby
    /// bootstrap. Returns `(next, records)`: every record id in
    /// `[from, next)` was scanned, and `records` holds the nonzero
    /// ones — an id absent from a scanned range is zero on the
    /// primary. `next == n_records` ends the scan.
    pub fn repl_scan(
        &mut self,
        shard: u32,
        from: u64,
        max_records: u32,
    ) -> WireResult<(u64, crate::ScanRecords)> {
        let req = Request::ReplScan {
            shard,
            from,
            max_records,
        };
        match self.request(&req)? {
            Response::ReplRecords { next, records } => Ok((next, records)),
            other => Err(unexpected("ReplRecords", &other)),
        }
    }

    /// Promotes a standby to primary: it stops pulling, drains replay,
    /// and starts accepting writes.
    pub fn promote(&mut self) -> WireResult<()> {
        match self.request(&Request::Promote)? {
            Response::Promoted => Ok(()),
            other => Err(unexpected("Promoted", &other)),
        }
    }

    /// Asks the server to shut down gracefully.
    pub fn shutdown(&mut self) -> WireResult<()> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }

    /// Retries `op` while the server reports transient (checkpoint
    /// interference) errors, up to `max_retries`, backing off briefly.
    /// This is the closed-loop driver's commit discipline: two-color
    /// aborts and COU quiesce refusals are load, not failures.
    pub fn retry_transient<T>(
        &mut self,
        max_retries: u32,
        mut op: impl FnMut(&mut Client) -> WireResult<T>,
    ) -> WireResult<(T, u32)> {
        let mut retries = 0;
        loop {
            match op(self) {
                Ok(v) => return Ok((v, retries)),
                Err(e) if e.is_transient() && retries < max_retries => {
                    retries += 1;
                    std::thread::sleep(Duration::from_micros(200 * u64::from(retries.min(10))));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> WireError {
    let got = match got {
        Response::Pong => "Pong",
        Response::Value { .. } => "Value",
        Response::Committed { .. } => "Committed",
        Response::Begun { .. } => "Begun",
        Response::Ok => "Ok",
        Response::StatsJson { .. } => "StatsJson",
        Response::CkptDone(_) => "CkptDone",
        Response::CkptStarted { .. } => "CkptStarted",
        Response::Fingerprint { .. } => "Fingerprint",
        Response::Info(_) => "Info",
        Response::ShuttingDown => "ShuttingDown",
        Response::TraceDump { .. } => "TraceDump",
        Response::ReplWelcome(_) => "ReplWelcome",
        Response::ReplBatch { .. } => "ReplBatch",
        Response::ReplRecords { .. } => "ReplRecords",
        Response::Promoted => "Promoted",
        Response::Error { .. } => "Error",
    };
    WireError::Unexpected(format!("wanted {wanted}, got {got}"))
}

/// Classifies an `ErrorCode` for drivers that count error kinds.
pub fn is_retryable(code: ErrorCode) -> bool {
    matches!(code, ErrorCode::Transient | ErrorCode::Busy)
}
