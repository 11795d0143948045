//! Per-connection request handling.
//!
//! Each connection is owned by exactly one worker thread for its whole
//! life. The worker goes through the [`mmdb_shard::ShardedMmdb`]
//! router, which takes a shard mutex per *primitive action*, never per
//! transaction, so an interactive `Begin`/`Write`/`Commit` sequence
//! interleaves with other connections and with checkpoint steps — the
//! paper's concurrency model, with the shard mutexes as processors.
//!
//! A connection's life: the worker blocks in [`read_frame`] until a
//! request arrives, the peer closes, the read times out
//! ([`ServerConfig::idle_timeout`](crate::ServerConfig::idle_timeout),
//! a per-gap bound) or a server stop shuts the read half. A reply write
//! that makes no progress for [`WRITE_STALL`] closes the connection.
//!
//! Connection-owned state is the set of open interactive transactions:
//! if the connection drops (or times out) with transactions still open,
//! the worker aborts them so they cannot pin the two-color checkpoint's
//! white set forever.
//!
//! Every request is wrapped in a request scope (`net.request` /
//! `net.request_ns`, carrying the client's trace context when the frame
//! was traced) plus per-op counters on the router's registry, so a
//! `Stats` request over the wire shows the network layer, the router
//! and every shard engine in one snapshot — and a `TraceDump` request
//! returns the span trees behind the slowest of them, with the shard
//! engines' background spans (recovery, checkpoint passes) alongside.

use crate::{ServerConfig, Shared, WRITE_STALL};
use mmdb_core::CheckpointStart;
use mmdb_shard::ShardedMmdb;
use mmdb_types::{Lsn, MmdbError, TxnId};
use mmdb_wire::{
    read_frame, write_frame, CkptStartState, CkptSummary, ErrorCode, FrameError, Request, Response,
    ServerInfo,
};
use std::collections::HashSet;
use std::io::{self, BufWriter};
use std::net::TcpStream;
use std::sync::atomic::Ordering;

/// Serves one connection to completion (peer close, idle timeout,
/// write stall, protocol error, or server shutdown).
pub(crate) fn serve_connection(shared: &Shared, stream: TcpStream, cfg: &ServerConfig) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(cfg.idle_timeout);
    let _ = stream.set_write_timeout(Some(WRITE_STALL));
    let mut writer = match stream.try_clone() {
        Ok(s) => BufWriter::new(s),
        Err(_) => return,
    };
    let mut reader = stream;

    let obs = shared.db.obs().clone();
    let mut open_txns: HashSet<TxnId> = HashSet::new();

    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            // clean close, or a server stop shut the read half
            Ok(None) => break,
            Err(FrameError::Io(e)) if timed_out(&e) => {
                obs.counter("net.conn.idle_closed", 1);
                break;
            }
            Err(_) => {
                obs.counter("net.conn.transport_errors", 1);
                break;
            }
        };

        let (req, trace) = match Request::decode_with_trace(&payload) {
            Ok(r) => r,
            Err(e) => {
                obs.counter("net.protocol_errors", 1);
                let resp = Response::Error {
                    code: ErrorCode::Protocol,
                    message: e.to_string(),
                };
                let _ = write_frame(&mut writer, &resp.encode());
                break; // desynchronized peer: close rather than guess
            }
        };

        let op = req.op_name();
        let is_shutdown = matches!(req, Request::Shutdown);
        // The request scope: every phase recorded on this thread (and
        // any shard-loop force it rings) lands in one span tree under the
        // client-supplied trace id, feeding the flight recorder, the
        // slow-request log, the attribution table and `net.request_ns`.
        let (trace_id, parent_span) = trace.map_or((0, 0), |t| (t.trace_id, t.parent_span));
        let scope = obs.request_scope("net.request", "net.request_ns", op, trace_id, parent_span);
        let resp = dispatch(shared, &req, &mut open_txns);
        scope.finish();
        obs.counter("net.requests", 1);
        obs.counter(op_counter(&req), 1);
        if matches!(resp, Response::Error { .. }) {
            obs.counter("net.request_errors", 1);
        }

        if let Err(e) = write_frame(&mut writer, &resp.encode()) {
            let counter = if timed_out(&e) {
                "net.conn.write_stalls"
            } else {
                "net.conn.transport_errors"
            };
            obs.counter(counter, 1);
            break;
        }
        if is_shutdown {
            shared.stop();
        }
        if shared.stopping() {
            // The response (typically a ShuttingDown error frame) is
            // flushed; close now so a client that keeps sending cannot
            // hold graceful shutdown hostage.
            break;
        }
    }
    // Every reply that went out was flushed; what a failed or stalled
    // write left buffered is dropped here, not flushed again on drop.
    let _ = writer.into_parts();

    if !open_txns.is_empty() {
        for txn in open_txns.drain() {
            if shared.db.abort(txn).is_ok() {
                shared
                    .txns_aborted_on_disconnect
                    .fetch_add(1, Ordering::SeqCst);
                obs.counter("net.txn.aborted_on_disconnect", 1);
            }
        }
    }
}

/// Both kinds a socket timeout surfaces as, depending on platform.
fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Executes one request against the sharded database, mapping engine
/// errors to wire error frames. The router takes shard mutexes
/// internally, one primitive action at a time.
fn dispatch(shared: &Shared, req: &Request, open_txns: &mut HashSet<TxnId>) -> Response {
    if shared.stopping() && !matches!(req, Request::Shutdown) {
        return Response::Error {
            code: ErrorCode::ShuttingDown,
            message: "server is shutting down".into(),
        };
    }
    let db = &shared.db;
    // An unpromoted standby is read-only: every write path is refused
    // at the door so replayed primary state can never interleave with
    // local writes.
    if matches!(
        req,
        Request::Put { .. } | Request::Batch { .. } | Request::Write { .. }
    ) && shared.replica.as_ref().is_some_and(|r| !r.is_writable())
    {
        return Response::Error {
            code: ErrorCode::Invalid,
            message: "read-only replica: writes are refused until promotion".into(),
        };
    }
    match req {
        Request::Ping => Response::Pong,
        Request::Get { rid } => match db.read_committed(*rid) {
            Ok(words) => Response::Value { words },
            Err(e) => error_response(&e),
        },
        Request::Put { rid, value } => {
            let updates = [(*rid, value.clone())];
            match db.run_txn(&updates) {
                Ok(run) => Response::Committed {
                    txn: run.txn,
                    runs: run.runs,
                },
                Err(e) => error_response(&e),
            }
        }
        Request::Batch { updates } => match db.run_txn(updates) {
            Ok(run) => Response::Committed {
                txn: run.txn,
                runs: run.runs,
            },
            Err(e) => error_response(&e),
        },
        Request::Begin => match db.begin_txn() {
            Ok(txn) => {
                open_txns.insert(txn);
                Response::Begun { txn }
            }
            Err(e) => error_response(&e),
        },
        Request::Read { txn, rid } => match db.read(*txn, *rid) {
            Ok(words) => Response::Value { words },
            Err(e) => interactive_error(&e, *txn, open_txns),
        },
        Request::Write { txn, rid, value } => match db.write(*txn, *rid, value) {
            Ok(()) => Response::Ok,
            Err(e) => interactive_error(&e, *txn, open_txns),
        },
        Request::Commit { txn } => match db.commit(*txn) {
            Ok(()) => {
                open_txns.remove(txn);
                Response::Committed { txn: *txn, runs: 1 }
            }
            Err(e) => interactive_error(&e, *txn, open_txns),
        },
        Request::Abort { txn } => match db.abort(*txn) {
            Ok(()) => {
                open_txns.remove(txn);
                Response::Ok
            }
            Err(e) => interactive_error(&e, *txn, open_txns),
        },
        Request::Stats => Response::StatsJson {
            json: db.metrics_snapshot().to_json_pretty(),
        },
        Request::Checkpoint { sync: true } => match db.checkpoint_all() {
            Ok(reports) => {
                // One summary for the whole topology: identity fields
                // (checkpoint number, target copy) from shard 0, work
                // counts summed across shards.
                let mut summary = CkptSummary {
                    ckpt: reports.first().map_or(0, |r| r.ckpt.raw()),
                    copy: reports.first().map_or(0, |r| r.copy as u8),
                    segments_flushed: 0,
                    segments_skipped: 0,
                    old_copies_flushed: 0,
                };
                for r in &reports {
                    summary.segments_flushed += r.segments_flushed;
                    summary.segments_skipped += r.segments_skipped;
                    summary.old_copies_flushed += r.old_copies_flushed;
                }
                Response::CkptDone(summary)
            }
            Err(e) => error_response(&e),
        },
        Request::Checkpoint { sync: false } => match db.try_begin_checkpoint() {
            Ok(CheckpointStart::Started(_)) => Response::CkptStarted {
                state: CkptStartState::Started,
            },
            Ok(CheckpointStart::Quiescing) => Response::CkptStarted {
                state: CkptStartState::Quiescing,
            },
            Err(MmdbError::CheckpointInProgress) => Response::CkptStarted {
                state: CkptStartState::AlreadyRunning,
            },
            Err(e) => error_response(&e),
        },
        Request::Fingerprint => Response::Fingerprint {
            fp: db.fingerprint(),
        },
        Request::Info => Response::Info(server_info(db)),
        Request::TraceDump { limit } => Response::TraceDump {
            json: db.trace_dump(*limit as usize).to_json(),
        },
        Request::ReplHello { ver_min, ver_max } => {
            match mmdb_repl::serve_hello(db, *ver_min, *ver_max) {
                Ok(w) => Response::ReplWelcome(w),
                Err(e) => error_response(&e),
            }
        }
        Request::ReplAck {
            shard,
            applied,
            max_bytes,
            wait_ms,
        } => match mmdb_repl::serve_pull(db, *shard, Lsn(*applied), *max_bytes, *wait_ms) {
            Ok((start, durable, bytes)) => Response::ReplBatch {
                shard: *shard,
                start: start.raw(),
                durable: durable.raw(),
                bytes,
            },
            Err(e) => error_response(&e),
        },
        Request::ReplScan {
            shard,
            from,
            max_records,
        } => match mmdb_repl::serve_scan(db, *shard, *from, *max_records) {
            Ok((next, records)) => Response::ReplRecords { next, records },
            Err(e) => error_response(&e),
        },
        Request::Promote => match &shared.replica {
            Some(replica) => match mmdb_repl::promote(db, replica) {
                Ok(()) => {
                    if let Some(f) = &shared.on_promote {
                        f();
                    }
                    Response::Promoted
                }
                Err(e) => error_response(&e),
            },
            None => Response::Error {
                code: ErrorCode::Invalid,
                message: "this server is not a replica".into(),
            },
        },
        Request::Shutdown => Response::ShuttingDown,
    }
}

fn server_info(db: &ShardedMmdb) -> ServerInfo {
    ServerInfo {
        n_records: db.n_records(),
        record_words: db.record_words() as u32,
        n_segments: db.config().params.db.n_segments(),
        algorithm: db.config().algorithm.name().to_string(),
    }
}

/// Like [`error_response`], but also evicts transactions the engine has
/// already killed (a two-color abort inside `commit` consumes the txn;
/// keeping it in `open_txns` would double-abort it at disconnect).
fn interactive_error(e: &MmdbError, txn: TxnId, open_txns: &mut HashSet<TxnId>) -> Response {
    if matches!(
        e,
        MmdbError::TwoColorViolation { .. } | MmdbError::NoSuchTxn(_)
    ) {
        open_txns.remove(&txn);
    }
    error_response(e)
}

/// Maps an engine error to a wire error frame. The Transient class is
/// the load-bearing one: closed-loop clients retry those instead of
/// counting them as failures.
fn error_response(e: &MmdbError) -> Response {
    let code = match e {
        MmdbError::TwoColorViolation { .. } | MmdbError::Quiesced => ErrorCode::Transient,
        MmdbError::CheckpointInProgress => ErrorCode::Busy,
        MmdbError::RecordOutOfRange { .. } | MmdbError::SegmentOutOfRange { .. } => {
            ErrorCode::OutOfRange
        }
        MmdbError::Corrupt(_) | MmdbError::NewerFormat(_) | MmdbError::NoCompleteBackup => {
            ErrorCode::Corrupt
        }
        MmdbError::Io(_) => ErrorCode::Io,
        MmdbError::NoSuchTxn(_)
        | MmdbError::BadRecordSize { .. }
        | MmdbError::UnsoundConfiguration(_)
        | MmdbError::NoCheckpointInProgress
        | MmdbError::Invalid(_) => ErrorCode::Invalid,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}

/// Static counter name per opcode (obs counters require `'static`).
fn op_counter(req: &Request) -> &'static str {
    match req {
        Request::Ping => "net.op.ping",
        Request::Get { .. } => "net.op.get",
        Request::Put { .. } => "net.op.put",
        Request::Batch { .. } => "net.op.batch",
        Request::Begin => "net.op.begin",
        Request::Read { .. } => "net.op.read",
        Request::Write { .. } => "net.op.write",
        Request::Commit { .. } => "net.op.commit",
        Request::Abort { .. } => "net.op.abort",
        Request::Stats => "net.op.stats",
        Request::Checkpoint { .. } => "net.op.checkpoint",
        Request::Fingerprint => "net.op.fingerprint",
        Request::Info => "net.op.info",
        Request::TraceDump { .. } => "net.op.trace_dump",
        Request::ReplHello { .. } => "net.op.repl_hello",
        Request::ReplAck { .. } => "net.op.repl_ack",
        Request::ReplScan { .. } => "net.op.repl_scan",
        Request::Promote => "net.op.promote",
        Request::Shutdown => "net.op.shutdown",
    }
}
