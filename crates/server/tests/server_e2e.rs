//! End-to-end tests: a real server on a loopback socket, real clients.

#![allow(clippy::unwrap_used)]

use mmdb_core::{Algorithm, MmdbConfig};
use mmdb_obs::MetricsSnapshot;
use mmdb_server::{run_load, LoadConfig, Server, ServerConfig, ServerHandle, WorkloadKind};
use mmdb_shard::ShardedMmdb;
use mmdb_types::RecordId;
use mmdb_wire::{read_frame, write_frame, Client, ErrorCode, Request, Response, WireError};
use std::time::{Duration, Instant};

fn spawn_server(algorithm: Algorithm, ckpt_interval: Option<Duration>) -> ServerHandle {
    let db = ShardedMmdb::open_in_memory(MmdbConfig::small(algorithm), 1).unwrap();
    let config = ServerConfig {
        poll_interval: Duration::from_millis(10),
        checkpoint_interval: ckpt_interval,
        ..ServerConfig::default()
    };
    Server::spawn_sharded(db, config).unwrap()
}

#[test]
fn eight_closed_loop_connections_under_continuous_checkpoints() {
    let handle = spawn_server(Algorithm::FuzzyCopy, Some(Duration::from_millis(1)));
    let addr = handle.local_addr().to_string();

    let cfg = LoadConfig {
        addr: addr.clone(),
        connections: 8,
        txns_per_conn: 50,
        updates_per_txn: 4,
        seed: 7,
        workload: WorkloadKind::Uniform,
        ..LoadConfig::default()
    };
    let report = run_load(&cfg).unwrap();
    assert_eq!(report.errors, 0, "no protocol or non-transient errors");
    assert_eq!(report.committed, 8 * 50);
    assert_eq!(report.latency_us.count, report.committed);
    assert!(report.throughput_tps > 0.0);

    // continuous checkpointing really ran alongside the load
    assert!(
        handle.checkpoints_completed() >= 1,
        "expected background checkpoints, saw {}",
        handle.checkpoints_completed()
    );

    // request telemetry is visible through the wire Stats op
    let mut c = Client::connect(&addr).unwrap();
    let stats = c.stats_json().unwrap();
    let snap = MetricsSnapshot::from_json(&stats).unwrap();
    let req_hist = snap.hist("net.request_ns").expect("request span histogram");
    assert!(req_hist.count >= 8 * 50, "spans for every request");
    assert!(snap.counter("net.requests").unwrap_or(0) >= 8 * 50);
    assert!(snap.counter("net.op.batch").unwrap_or(0) >= 8 * 50);
    assert_eq!(
        snap.counter("net.protocol_errors"),
        None,
        "no protocol errors"
    );

    let db = handle.shutdown_join();
    assert_eq!(db.txn_committed(), 8 * 50);
}

#[test]
fn two_color_transients_are_absorbed_as_retries_not_errors() {
    let handle = spawn_server(Algorithm::TwoColorCopy, Some(Duration::from_millis(1)));
    let cfg = LoadConfig {
        addr: handle.local_addr().to_string(),
        connections: 8,
        txns_per_conn: 30,
        updates_per_txn: 4,
        seed: 11,
        workload: WorkloadKind::Zipf(0.8),
        ..LoadConfig::default()
    };
    let report = run_load(&cfg).unwrap();
    assert_eq!(report.errors, 0);
    assert_eq!(report.committed, 8 * 30);
    let db = handle.shutdown_join();
    assert_eq!(db.txn_committed(), 8 * 30);
}

#[test]
fn interactive_transaction_reads_its_own_writes() {
    let handle = spawn_server(Algorithm::FuzzyCopy, None);
    let mut c = Client::connect(handle.local_addr()).unwrap();

    let info = c.info().unwrap();
    assert!(info.n_records > 0);
    let value: Vec<u32> = (0..info.record_words).collect();

    let txn = c.begin().unwrap();
    c.write(txn, RecordId(3), &value).unwrap();
    assert_eq!(c.read(txn, RecordId(3)).unwrap(), value);
    // committed view unchanged until commit
    assert_ne!(c.get(RecordId(3)).unwrap(), value);
    c.commit(txn).unwrap();
    assert_eq!(c.get(RecordId(3)).unwrap(), value);

    // abort path: staged write discarded
    let txn = c.begin().unwrap();
    let other: Vec<u32> = vec![9; info.record_words as usize];
    c.write(txn, RecordId(3), &other).unwrap();
    c.abort(txn).unwrap();
    assert_eq!(c.get(RecordId(3)).unwrap(), value);

    handle.shutdown_join();
}

#[test]
fn disconnect_aborts_open_transactions() {
    let handle = spawn_server(Algorithm::FuzzyCopy, None);
    let addr = handle.local_addr();

    let before;
    {
        let mut c = Client::connect(addr).unwrap();
        let info = c.info().unwrap();
        before = c.get(RecordId(5)).unwrap();
        let mut value = before.clone();
        value[0] = value[0].wrapping_add(0xAA);
        assert_eq!(value.len(), info.record_words as usize);
        let txn = c.begin().unwrap();
        c.write(txn, RecordId(5), &value).unwrap();
        // drop without commit
    }

    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.txns_aborted_on_disconnect() == 0 {
        assert!(Instant::now() < deadline, "server never aborted the orphan");
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut c = Client::connect(addr).unwrap();
    assert_eq!(
        c.get(RecordId(5)).unwrap(),
        before,
        "uncommitted write must not be visible"
    );
    handle.shutdown_join();
}

#[test]
fn wire_checkpoint_ops_and_fingerprint() {
    let handle = spawn_server(Algorithm::FuzzyCopy, None);
    let mut c = Client::connect(handle.local_addr()).unwrap();
    let info = c.info().unwrap();
    assert_eq!(info.algorithm, "FUZZYCOPY");

    let (_txn, runs) = c
        .put(RecordId(0), &vec![1u32; info.record_words as usize])
        .unwrap();
    assert!(runs >= 1);

    let summary = c.checkpoint_sync().unwrap();
    assert!(summary.segments_flushed >= 1);

    let fp1 = c.fingerprint().unwrap();
    let fp2 = c.fingerprint().unwrap();
    assert_eq!(fp1, fp2, "fingerprint is stable with no writes");

    handle.shutdown_join();
}

#[test]
fn shutdown_over_the_wire_stops_the_server() {
    let handle = spawn_server(Algorithm::FuzzyCopy, Some(Duration::from_millis(1)));
    let addr = handle.local_addr();
    let mut c = Client::connect(addr).unwrap();
    c.ping().unwrap();
    c.shutdown().unwrap();

    // the engine comes back out and is intact
    let db = handle.shutdown_join();
    assert!(!db.is_crashed());
    let _ = db.fingerprint(); // engine is whole enough to walk

    // and the port stops accepting (either refused, or accepted by a
    // lingering backlog entry and then closed without service)
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => assert!(c.ping().is_err(), "server must not serve after shutdown"),
    }
}

#[test]
fn malformed_frames_get_an_error_frame_then_close() {
    let handle = spawn_server(Algorithm::FuzzyCopy, None);
    let stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    let mut c = Client::over(stream.try_clone().unwrap()).unwrap();

    // a frame whose payload is garbage (bad version byte)
    {
        let mut w = stream.try_clone().unwrap();
        write_frame(&mut w, &[0xFF, 0xFF, 0x00]).unwrap();
    }
    match c.request(&Request::Ping) {
        // the server answers the garbage with a Protocol error frame,
        // which the client surfaces as Remote, then closes
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected protocol error frame, got {other:?}"),
    }
    handle.shutdown_join();
}

#[test]
fn request_only_checkpointer_drives_async_checkpoints() {
    // The idle checkpointer polls coarsely in request-only mode; a
    // client-started checkpoint must still be picked up and driven.
    let handle = spawn_server(Algorithm::FuzzyCopy, None);
    let mut c = Client::connect(handle.local_addr()).unwrap();
    assert_eq!(handle.checkpoints_completed(), 0);
    c.checkpoint_async().unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.checkpoints_completed() == 0 {
        assert!(
            Instant::now() < deadline,
            "checkpointer never drove the requested checkpoint"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown_join();
}

#[test]
fn frame_straddling_poll_timeouts_is_not_torn() {
    // Regression: the server polls reads with a short SO_RCVTIMEO; a
    // frame arriving slower than the poll interval must reassemble,
    // not lose its already-received bytes and desynchronize.
    let handle = spawn_server(Algorithm::FuzzyCopy, None);
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    let payload = Request::Ping.encode();
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    // dribble one byte at a time, pausing past the server's 10ms poll
    // interval so its read timeout fires repeatedly mid-frame
    for b in frame {
        use std::io::Write;
        stream.write_all(&[b]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(25));
    }
    let resp = read_frame(&mut stream).unwrap().expect("response frame");
    match Response::decode(&resp).unwrap() {
        Response::Pong => {}
        other => panic!("expected Pong, got {other:?}"),
    }
    handle.shutdown_join();
}

#[test]
fn shutdown_is_not_held_hostage_by_a_chatty_client() {
    // Regression: a client that keeps sending requests used to receive
    // ShuttingDown error frames forever, and shutdown_join waited on
    // its worker until the client voluntarily disconnected.
    let handle = spawn_server(Algorithm::FuzzyCopy, None);
    let addr = handle.local_addr();
    let chatty = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        // keep hammering through ShuttingDown refusals, exactly what the
        // bug needed to manifest, until the server closes the connection
        while let Ok(()) | Err(WireError::Remote { .. }) = c.ping() {}
    });
    std::thread::sleep(Duration::from_millis(50)); // let the client get going
    handle.stop();
    let t0 = Instant::now();
    let _db = handle.shutdown_join();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown must not wait for the chatty client"
    );
    chatty.join().unwrap();
}

#[test]
fn out_of_range_and_bad_size_map_to_typed_errors() {
    let handle = spawn_server(Algorithm::FuzzyCopy, None);
    let mut c = Client::connect(handle.local_addr()).unwrap();
    let info = c.info().unwrap();

    match c.get(RecordId(info.n_records + 10)) {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::OutOfRange),
        other => panic!("expected OutOfRange, got {other:?}"),
    }
    match c.put(RecordId(0), &[1u32; 1000]) {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Invalid),
        other => panic!("expected Invalid (bad record size), got {other:?}"),
    }
    // the connection survives typed errors
    c.ping().unwrap();
    handle.shutdown_join();
}

#[test]
fn sharded_server_serves_affine_and_cross_shard_load() {
    let db = ShardedMmdb::open_in_memory(MmdbConfig::small(Algorithm::FuzzyCopy), 4).unwrap();
    let config = ServerConfig {
        poll_interval: Duration::from_millis(10),
        checkpoint_interval: Some(Duration::from_millis(1)),
        ..ServerConfig::default()
    };
    let handle = Server::spawn_sharded(db, config).unwrap();
    let addr = handle.local_addr().to_string();

    let cfg = LoadConfig {
        addr: addr.clone(),
        connections: 8,
        txns_per_conn: 25,
        updates_per_txn: 4,
        seed: 17,
        workload: WorkloadKind::Uniform,
        shards: 4,
        cross_fraction: 0.2,
        ..LoadConfig::default()
    };
    let report = run_load(&cfg).unwrap();
    assert_eq!(report.errors, 0);
    assert_eq!(report.committed, 8 * 25);

    // the merged Stats snapshot shows the topology and both txn classes
    let mut c = Client::connect(&addr).unwrap();
    let stats = c.stats_json().unwrap();
    let snap = MetricsSnapshot::from_json(&stats).unwrap();
    assert_eq!(snap.gauge("shard.count"), Some(4));
    assert!(snap.counter("router.txns_single").unwrap_or(0) > 0);
    assert!(snap.counter("router.txns_cross").unwrap_or(0) > 0);

    let db = handle.shutdown_join();
    assert_eq!(db.shards(), 4);
    assert!(db.audit_violations().is_empty(), "no protocol violations");
}

#[test]
fn response_timeout_protects_a_client() {
    // not a server defect test: just proves the client timeout plumbing
    // works against a listener that never answers
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut c = Client::connect(addr).unwrap();
    c.set_timeout(Some(Duration::from_millis(50))).unwrap();
    match c.ping() {
        Err(WireError::Io(e)) => assert!(
            e.kind() == std::io::ErrorKind::WouldBlock || e.kind() == std::io::ErrorKind::TimedOut
        ),
        other => panic!("expected timeout, got {other:?}"),
    }
    drop(listener);
}

#[test]
fn slow_traced_request_shows_log_force_dominating_via_trace_dump() {
    // A 5ms modeled force latency makes every committing request slow
    // (threshold 1ms) with `log.force` as the dominant phase.
    let mut config = MmdbConfig::small(Algorithm::FuzzyCopy);
    config.log_force_latency_us = 5_000;
    let db = ShardedMmdb::open_in_memory(config, 1).unwrap();
    let server_cfg = ServerConfig {
        poll_interval: Duration::from_millis(10),
        checkpoint_interval: None,
        slow_trace_us: 1_000,
        ..ServerConfig::default()
    };
    let handle = Server::spawn_sharded(db, server_cfg).unwrap();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    c.set_tracing(true);

    let info = c.info().unwrap();
    let value: Vec<u32> = (0..info.record_words).collect();
    c.put(RecordId(1), &value).unwrap();

    let dump = c.trace_dump(64).unwrap();
    let doc = mmdb_obs::TraceDumpDoc::from_json(&dump).unwrap();
    assert_eq!(doc.slow_threshold_us, 1_000);
    let slow = doc
        .slow
        .iter()
        .find(|e| e.op == "put")
        .expect("the put request beat the slow threshold");
    assert_ne!(slow.trace_id, 0, "client-side trace id propagated");
    assert!(
        slow.total_ns >= 5_000_000,
        "end-to-end covers the modeled force: {} ns",
        slow.total_ns
    );
    let root = slow
        .spans
        .iter()
        .find(|s| s.name == "net.request")
        .expect("root span in the tree");
    assert_eq!(root.trace_id, slow.trace_id);
    let force_ns: u64 = slow
        .spans
        .iter()
        .filter(|s| s.name == "log.force")
        .map(|s| s.dur_ns)
        .sum();
    assert!(
        force_ns * 2 >= slow.total_ns,
        "log.force dominates the slow request: {force_ns} of {} ns",
        slow.total_ns
    );
    // Every phase in the tree hangs off the request's trace.
    for s in &slow.spans {
        assert_eq!(s.trace_id, slow.trace_id, "span {} routed", s.name);
    }
    handle.shutdown_join();
}

#[test]
fn attribution_reconciles_with_the_request_histogram() {
    let handle = spawn_server(Algorithm::FuzzyCopy, Some(Duration::from_millis(1)));
    let addr = handle.local_addr().to_string();
    let cfg = LoadConfig {
        addr: addr.clone(),
        connections: 4,
        txns_per_conn: 25,
        updates_per_txn: 2,
        seed: 23,
        workload: WorkloadKind::Uniform,
        ..LoadConfig::default()
    };
    let report = run_load(&cfg).unwrap();
    assert_eq!(report.errors, 0);

    let mut c = Client::connect(&addr).unwrap();
    let snap = MetricsSnapshot::from_json(&c.stats_json().unwrap()).unwrap();
    let hist = snap.hist("net.request_ns").expect("request histogram");
    assert!(!snap.attribution.is_empty(), "attribution section present");
    let batch = snap
        .attribution
        .iter()
        .find(|r| r.op == "batch")
        .expect("batch op attributed");
    assert!(batch.requests >= 4 * 25);
    let phase_names: Vec<&str> = batch.phases.iter().map(|(n, _, _)| n.as_str()).collect();
    for required in ["engine.lock_wait", "txn.exec"] {
        assert!(
            phase_names.contains(&required),
            "batch phases missing {required}: {phase_names:?}"
        );
    }
    // Per-op end-to-end totals reconcile with the request histogram
    // (exact by construction; the bound here is the acceptance's 5%).
    let attr_total: u64 = snap
        .attribution
        .iter()
        .filter(|r| r.requests > 0)
        .map(|r| r.total_ns)
        .sum();
    // The histogram keeps recording after the stats snapshot request
    // itself, so compare against the sum captured in the same snapshot.
    let lo = hist.sum.saturating_sub(hist.sum / 20);
    let hi = hist.sum + hist.sum / 20;
    assert!(
        (lo..=hi).contains(&attr_total),
        "attribution {attr_total} ns vs histogram {} ns",
        hist.sum
    );
    // The shard loop's checkpoint passes record on the engine's own
    // handle; the wire surfaces still show them as background work.
    let system = snap
        .attribution
        .iter()
        .find(|r| r.op == mmdb_obs::SYSTEM_OP)
        .expect("system row");
    assert!(
        system.phases.iter().any(|(n, ..)| n == "ckpt.pass"),
        "system phases: {:?}",
        system.phases
    );
    let doc = mmdb_obs::TraceDumpDoc::from_json(&c.trace_dump(4096).unwrap()).unwrap();
    assert!(
        doc.recent.iter().any(|s| s.name.starts_with("ckpt.")),
        "no checkpoint span in the wire trace dump"
    );
    handle.shutdown_join();
}
